package dnsmsg

import (
	"hash/maphash"
	"net/netip"
	"sync"
	"sync/atomic"
)

// Bounds of the shared name table. The paper's workload, the Alexa top
// 1M, interns about 2.9 names per site (a 50k-site world has 145,238
// distinct names), so ~2.9M names of 20–40 bytes. tableEntryBytes is what
// one key costs on top of its own bytes: the entry, its share of the slot
// array at the table's load factor, and one boxed RData payload.
// tableBytes holds that working set (~370 MiB) with room for uneven
// shards. Input that would grow a shard past its share of tableBytes (a
// fuzzer's endless novel names, or a world far beyond 1M sites) starts
// that one shard over instead; the rest of the table is untouched.
const (
	tableShardBits  = 10
	tableShards     = 1 << tableShardBits
	tableEntryBytes = 96
	tableBytes      = 512 << 20
	shardBytes      = tableBytes / tableShards
	minShardSlots   = 16
)

// addrKeyTag prefixes the key of an A or AAAA payload (tag + 4 or 16 raw
// address bytes). No name key starts with it: the decoder's fast path
// interns ASCII only, and ParseName output is valid UTF-8, where 0xFF
// never occurs.
const addrKeyTag = 0xFF

// Payload slots of an entry: a name key boxes NSData and CNAMEData, and
// the last SOAData decoded at that owner; an address key its one AData or
// AAAAData.
const (
	boxNS    = 0
	boxAddr  = 0
	boxCNAME = 1
	boxSOA   = 2
)

// sharedNames is the one name table of the process. Every Decoder interns
// into it, so each distinct name is one Go string however many decoders,
// pools, and sharded worlds decode it.
var sharedNames = nameTable{seed: maphash.MakeSeed()}

// nameTable interns decoded names, and the raw address keys of A/AAAA
// payloads, for concurrent use. Lookups take no lock: a shard's slots are
// an open-addressed array of atomic entry pointers that only ever gains
// entries, so a reader probes whichever array it loaded. Writers
// serialize per shard. A shard grows by copying into a fresh array and
// starts over with an empty one when it would exceed shardBytes.
type nameTable struct {
	seed   maphash.Seed
	shards [tableShards]tableShard
}

type tableShard struct {
	slots atomic.Pointer[[]atomic.Pointer[entry]]
	mu    sync.Mutex
	count int // entries in slots; guarded by mu
	bytes int // their cost in bytes; guarded by mu
}

// entry is one interned key with the RData payloads boxed for it. Storing
// a concrete rdata struct in the RData interface allocates, and a campaign
// decodes the same addresses and targets endlessly, so each is boxed once.
type entry struct {
	key  string
	hash uint64
	box  [3]atomic.Pointer[RData]
}

// get returns the entry for key, inserting a copy of key on first sight.
// A hit takes no lock and allocates nothing.
func (t *nameTable) get(key []byte) *entry {
	h := maphash.Bytes(t.seed, key)
	sh := t.shard(h)
	if s := sh.slots.Load(); s != nil {
		if e := find(*s, h, key); e != nil {
			return e
		}
	}
	return sh.insert(h, key)
}

func (t *nameTable) shard(h uint64) *tableShard {
	return &t.shards[h>>(64-tableShardBits)]
}

// find probes s for key; the load factor stays at most 1/2, so an empty
// slot ends every probe.
func find(s []atomic.Pointer[entry], h uint64, key []byte) *entry {
	mask := uint64(len(s) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := s[i].Load()
		if e == nil || (e.hash == h && e.key == string(key)) {
			return e
		}
	}
}

func put(s []atomic.Pointer[entry], e *entry) {
	mask := uint64(len(s) - 1)
	i := e.hash & mask
	for s[i].Load() != nil {
		i = (i + 1) & mask
	}
	s[i].Store(e)
}

func (sh *tableShard) insert(h uint64, key []byte) *entry {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur := sh.slots.Load()
	if cur != nil {
		if e := find(*cur, h, key); e != nil {
			return e // another writer got here first
		}
	}
	cost := len(key) + tableEntryBytes
	switch {
	case cur == nil || sh.bytes+cost > shardBytes:
		sh.reset()
	case 2*(sh.count+1) > len(*cur):
		grown := make([]atomic.Pointer[entry], 2*len(*cur))
		for i := range *cur {
			if e := (*cur)[i].Load(); e != nil {
				put(grown, e)
			}
		}
		sh.slots.Store(&grown)
	}
	e := &entry{key: string(key), hash: h}
	put(*sh.slots.Load(), e)
	sh.count++
	sh.bytes += cost
	return e
}

// reset empties the shard; sh.mu must be held. Readers still probing the
// old array finish against it, and names already handed out stay valid.
func (sh *tableShard) reset() {
	s := make([]atomic.Pointer[entry], minShardSlots)
	sh.slots.Store(&s)
	sh.count, sh.bytes = 0, 0
}

// InternedChild is Child, returning the shared table's copy of the name.
// The name is assembled in a stack buffer, so once the codec has decoded
// it, building it again allocates nothing.
func (n Name) InternedChild(label string) Name {
	label = childLabel(label)
	var buf [253]byte
	if len(label)+1+len(n) > len(buf) || label[0] >= 0x80 {
		return n.Child(label) // not a key the decoder would intern
	}
	b := append(buf[:0], label...)
	if n != "" {
		b = append(append(b, '.'), n...)
	}
	return Name(sharedNames.get(b).key)
}

// rdata returns e's payload in slot, boxing build(e.key) on first use.
func (e *entry) rdata(slot int, build func(key string) RData) RData {
	if p := e.box[slot].Load(); p != nil {
		return *p
	}
	p := new(RData)
	*p = build(e.key)
	if !e.box[slot].CompareAndSwap(nil, p) {
		p = e.box[slot].Load()
	}
	return *p
}

// soa returns soa boxed, reusing e's SOA box when it holds equal
// contents. A zone's SOA changes only with its serial, so the box is
// replaced, not kept per version.
func (e *entry) soa(soa SOAData) RData {
	if p := e.box[boxSOA].Load(); p != nil && (*p).(SOAData) == soa {
		return *p
	}
	p := new(RData)
	*p = soa
	e.box[boxSOA].Store(p)
	return *p
}

func nsPayload(key string) RData    { return NSData{Host: Name(key)} }
func cnamePayload(key string) RData { return CNAMEData{Target: Name(key)} }

func addrPayload(key string) RData {
	if len(key) == 1+4 {
		var a [4]byte
		copy(a[:], key[1:])
		return AData{Addr: netip.AddrFrom4(a)}
	}
	var a [16]byte
	copy(a[:], key[1:])
	return AAAAData{Addr: netip.AddrFrom16(a)}
}
