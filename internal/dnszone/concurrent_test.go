package dnszone

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"rrdps/internal/dnsmsg"
)

// TestConcurrentLookupDuringMutation runs LookupInto readers against a
// writer that keeps rewriting, removing and re-adding the very owners
// they query: an answer, a deep branch of empty non-terminals, and a
// delegation with in-zone glue. Every result must be one the zone held
// at some instant; under -race it also pins that lookups only read
// state the lock guards.
func TestConcurrentLookupDuringMutation(t *testing.T) {
	const (
		www  = dnsmsg.Name("www.example.com")
		leaf = dnsmsg.Name("a.b.c.example.com")
		ent  = dnsmsg.Name("b.c.example.com")
		cut  = dnsmsg.Name("sub.example.com")
		glue = dnsmsg.Name("ns1.sub.example.com")
	)
	r1 := dnsmsg.NewA(www, time.Minute, addr("10.0.0.1"))
	r2 := dnsmsg.NewA(www, time.Minute, addr("10.0.0.2"))
	r3 := dnsmsg.NewA(www, time.Minute, addr("10.0.0.3"))
	leafA := dnsmsg.NewA(leaf, time.Minute, addr("10.0.1.1"))
	ns := dnsmsg.NewNS(cut, time.Hour, glue)
	glueA := dnsmsg.NewA(glue, time.Hour, addr("10.0.2.1"))
	wwwAnswers := [][]dnsmsg.RR{{r1, r2}, {r3}}

	z := newTestZone(t)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var res Result
			fail := func(msg string) {
				select {
				case errs <- msg:
				default:
				}
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				z.LookupInto(www, dnsmsg.TypeA, &res)
				switch res.Kind {
				case KindAnswer:
					ok := false
					for _, want := range wwwAnswers {
						ok = ok || reflect.DeepEqual(res.Records, want)
					}
					if !ok {
						fail("www answer " + fmt.Sprint(res.Records))
					}
				case KindNXDomain:
				default:
					fail("www kind " + res.Kind.String())
				}
				z.LookupInto(ent, dnsmsg.TypeA, &res)
				if res.Kind != KindNoData && res.Kind != KindNXDomain {
					fail("empty non-terminal kind " + res.Kind.String())
				}
				z.LookupInto("host.sub.example.com", dnsmsg.TypeA, &res)
				switch res.Kind {
				case KindReferral:
					if !reflect.DeepEqual(res.Records, []dnsmsg.RR{ns}) ||
						(len(res.Glue) != 0 && !reflect.DeepEqual(res.Glue, []dnsmsg.RR{glueA})) {
						fail("referral " + fmt.Sprint(res.Records) + " glue " + fmt.Sprint(res.Glue))
					}
				case KindNXDomain:
				default:
					fail("below cut kind " + res.Kind.String())
				}
			}
		}()
	}

	for i := 0; i < 500; i++ {
		mustSet(t, z, www, dnsmsg.TypeA, r1, r2)
		mustSet(t, z, leaf, dnsmsg.TypeA, leafA)
		mustSet(t, z, cut, dnsmsg.TypeNS, ns)
		z.MustAdd(glueA)
		z.Remove(www, dnsmsg.TypeA)
		z.MustAdd(r3)
		z.RemoveName(leaf)
		z.Remove(glue, dnsmsg.TypeA)
		z.RemoveName(cut)
		z.RemoveName(www)
	}
	close(stop)
	readers.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if names := z.Names(); len(names) != 0 {
		t.Errorf("zone not empty after the writer undid everything: %v", names)
	}
}

func mustSet(t *testing.T, z *Zone, name dnsmsg.Name, typ dnsmsg.Type, rrs ...dnsmsg.RR) {
	t.Helper()
	if err := z.Set(name, typ, rrs...); err != nil {
		t.Fatal(err)
	}
}
