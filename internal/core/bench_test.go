package core

import (
	"math/rand"
	"net/netip"
	"sort"
	"testing"
	"time"

	"repro/internal/bgp/wire"
	"repro/internal/idr"
	"repro/internal/sim"
	"repro/internal/speaker"
	"repro/internal/topology"
)

// BenchmarkControllerRecompute measures one full recomputation of a
// 500-member cluster: the top 500 ASes of `internet 1000` (topology
// seed 1) by degree, ties broken by ascending ASN. Member–member edges
// are intra-cluster ports; each member–legacy edge is an established
// peering carrying one route for the one prefix, with path [neighbor]
// — the vf figure's cluster, whose RIB holds one prefix. One op is
// markAllDirty plus recompute; the build and the first recomputation
// (which sends every announcement once) stay outside the timer.
func BenchmarkControllerRecompute(b *testing.B) {
	g, err := topology.SynthesizeInternetLike(topology.InternetLikeConfig{ASes: 1000}, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	nodes := g.Nodes()
	sort.Slice(nodes, func(i, j int) bool {
		if di, dj := g.Degree(nodes[i]), g.Degree(nodes[j]); di != dj {
			return di > dj
		}
		return nodes[i] < nodes[j]
	})
	members := nodes[:500]
	isMember := make(map[idr.ASN]bool, len(members))
	for _, m := range members {
		isMember[m] = true
	}
	c, err := New(Config{Clock: sim.NewKernel(1), Debounce: time.Second})
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range members {
		if err := c.AddMember(m, nopSend); err != nil {
			b.Fatal(err)
		}
	}
	addr := func(a idr.ASN, last byte) netip.Addr {
		return netip.AddrFrom4([4]byte{10, byte(a >> 8), byte(a), last})
	}
	prefix := netip.MustParsePrefix("192.0.2.0/24")
	for _, m := range members {
		for i, nb := range g.Neighbors(m) {
			port := uint32(i + 1)
			if err := c.RegisterPort(m, port, nb, isMember[nb]); err != nil {
				b.Fatal(err)
			}
			if isMember[nb] {
				continue
			}
			if err := c.AddExternalPeering(m, port, nb, idr.RouterIDFromAddr(addr(m, 1)), addr(m, 2)); err != nil {
				b.Fatal(err)
			}
			key := SessKey{Border: m, Port: port}
			es := c.sessions[key]
			es.sess.RestoreState(speaker.SessionState{State: speaker.StateEstablished, TransportUp: true})
			es.established = true
			c.onRoute(key, speaker.RouteEvent{Prefix: prefix, Attrs: wire.PathAttrs{
				Origin: wire.OriginIGP, ASPath: wire.NewASPath(nb), NextHop: addr(nb, 1),
			}})
		}
	}
	c.recompute()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.markAllDirty()
		c.recompute()
	}
}
