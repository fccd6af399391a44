package dnsmsg

import (
	"encoding/hex"
	"net/netip"
	"testing"
	"time"
)

// referralMessage is a delegation from a parent zone: in-zone and
// out-of-zone nameservers in the authority section, glue for the in-zone
// ones in the additional section.
func referralMessage() *Message {
	q := NewQuery(513, MustParseName("www.example.com"), TypeA)
	resp := NewResponse(q, RCodeNoError)
	resp.Authority = []RR{
		NewNS("example.com", 172800*time.Second, "ns1.example.com"),
		NewNS("example.com", 172800*time.Second, "ns2.example.com"),
		NewNS("example.com", 172800*time.Second, "a.ns.provider.net"),
	}
	resp.Additional = []RR{
		NewA("ns1.example.com", 172800*time.Second, netip.MustParseAddr("192.0.2.53")),
		NewA("ns2.example.com", 172800*time.Second, netip.MustParseAddr("198.51.100.53")),
		{Name: "ns1.example.com", Class: ClassIN, TTL: 172800 * time.Second,
			Data: AAAAData{Addr: netip.MustParseAddr("2001:db8::53")}},
	}
	return resp
}

// crossZoneCNAMEMessage is an answer whose CNAME chain leaves the
// queried zone twice before reaching the addresses.
func crossZoneCNAMEMessage() *Message {
	q := NewQuery(9, MustParseName("shop.example.org"), TypeA)
	resp := NewResponse(q, RCodeNoError)
	resp.Header.RecursionAvailable = true
	resp.Answers = []RR{
		NewCNAME("shop.example.org", 300*time.Second, "shop.example.org.cdn.cloudflare.net"),
		NewCNAME("shop.example.org.cdn.cloudflare.net", 300*time.Second, "x7.incapdns.net"),
		NewA("x7.incapdns.net", 30*time.Second, netip.MustParseAddr("199.83.128.17")),
		NewA("x7.incapdns.net", 30*time.Second, netip.MustParseAddr("199.83.128.18")),
	}
	resp.Authority = []RR{
		NewNS("incapdns.net", 3600*time.Second, "ns1.incapdns.net"),
	}
	return resp
}

// TestEncodeMatchesGoldenWire pins the exact wire bytes, compression
// pointers included, of three representative messages. The fault plan of
// the simulated network hashes payload content, so any change to how
// names are compressed would silently change which packets it drops.
func TestEncodeMatchesGoldenWire(t *testing.T) {
	for _, tc := range []struct {
		name string
		msg  *Message
		hex  string
	}{
		{"sample", sampleMessage(), sampleWireHex},
		{"referral-with-glue", referralMessage(), referralWireHex},
		{"cross-zone-cname", crossZoneCNAMEMessage(), crossZoneCNAMEWireHex},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var e Encoder
			for round := 0; round < 2; round++ { // a reused encoder too
				wire, err := e.Encode(tc.msg)
				if err != nil {
					t.Fatal(err)
				}
				if got := hex.EncodeToString(wire); got != tc.hex {
					t.Fatalf("round %d wire:\n got %s\nwant %s", round, got, tc.hex)
				}
			}
			appended, err := e.EncodeAppend([]byte{0xAA, 0xBB}, tc.msg)
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(appended[2:]); got != tc.hex {
				t.Fatalf("EncodeAppend wire:\n got %s\nwant %s", got, tc.hex)
			}
		})
	}
}

const (
	sampleWireHex         = "12348500000100020002000403777777076578616d706c6503636f6d0000010001c00c000500010000012c002203777777076578616d706c6503636f6d0363646e08696e636170646e73036e657400c02d000100010000001e0004c7538011c01000020001000151800015046b617465026e730a636c6f7564666c617265c018c0100002000100015180000603726f62c070c06b0001000100000e100004adf53a01c010000f000100000e100009000a046d61696cc010c010001000010000003c00120b763d73706631202d616c6c0570726f6265c0100006000100000384001cc06b03646e73c073000007f200001c2000000e10001275000000012c"
	referralWireHex       = "02018100000100000003000303777777076578616d706c6503636f6d0000010001c010000200010002a3000006036e7331c010c010000200010002a3000006036e7332c010c010000200010002a30000130161026e730870726f7669646572036e657400c02d000100010002a3000004c0000235c03f000100010002a3000004c6336435c02d001c00010002a300001020010db8000000000000000000000053"
	crossZoneCNAMEWireHex = "0009818000010004000100000473686f70076578616d706c65036f72670000010001c00c000500010000012c00250473686f70076578616d706c65036f72670363646e0a636c6f7564666c617265036e657400c02e000500010000012c000e02783708696e636170646e73c04ec05f000100010000001e0004c7538011c05f000100010000001e0004c7538012c0620002000100000e100006036e7331c062"
)
