package rib

import (
	"net/netip"
	"sort"
	"testing"

	"repro/internal/bgp/wire"
	"repro/internal/idr"
)

// routesEq compares routes semantically — the table and the reference
// build some entries (locally-originated ones) independently, so
// pointer identity is not available.
func routesEq(a, b *Route) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return a.Prefix == b.Prefix && a.Peer == b.Peer && a.Local == b.Local &&
		a.PeerASN == b.PeerASN && a.PeerID == b.PeerID && a.Attrs.Equal(b.Attrs)
}

func changesEq(a, b Change) bool {
	return a.Prefix == b.Prefix && routesEq(a.Old, b.Old) && routesEq(a.New, b.New)
}

// fuzzPeers and fuzzPrefixes are the fixed identifier pools the fuzz
// driver draws from: a few peers and prefixes are enough to exercise
// candidate-index churn, MED tie-breaks and longest-prefix matching
// across nested prefixes of both address families. Two sessions share
// AS2, so MED is compared between some candidates and not others, and
// the AS3 session's router ID sits between theirs: that is the case
// where Better is not transitive and the result depends on scanning
// candidates in sorted peer-key order.
var fuzzPeers = []PeerKey{"as2:0", "as2:1", "as3:0", "as4:0"}

// fuzzPeerAS gives each fuzzPeers entry its neighbor AS and the last
// octet of its router ID.
var fuzzPeerAS = []struct {
	asn idr.ASN
	id  byte
}{{2, 10}, {2, 30}, {3, 20}, {4, 40}}

var fuzzPrefixes = []netip.Prefix{
	netip.MustParsePrefix("10.0.1.0/24"),
	netip.MustParsePrefix("10.0.2.0/24"),
	netip.MustParsePrefix("10.0.2.0/25"),
	netip.MustParsePrefix("10.1.0.0/16"),
	netip.MustParsePrefix("10.0.0.0/8"),
	netip.MustParsePrefix("192.168.7.0/24"),
	netip.MustParsePrefix("2001:db8::/32"),
	netip.MustParsePrefix("2001:db8:1::/48"),
}

// fuzzRoute derives a deterministic route for (peer, prefix, variant).
func fuzzRoute(pi int, prefix netip.Prefix, variant uint8) *Route {
	peer := fuzzPeers[pi]
	asn := fuzzPeerAS[pi].asn
	pathLen := 1 + int(variant%3)
	asns := make([]idr.ASN, pathLen)
	for i := range asns {
		asns[i] = idr.ASN(int(asn) + i)
	}
	r := &Route{
		Prefix:  prefix,
		Peer:    peer,
		PeerASN: asn,
		PeerID:  idr.RouterIDFromAddr(netip.AddrFrom4([4]byte{172, 16, 0, fuzzPeerAS[pi].id})),
		Attrs: wire.PathAttrs{
			Origin:  wire.Origin(variant % 3),
			ASPath:  wire.NewASPath(asns...),
			NextHop: netip.AddrFrom4([4]byte{100, 64, 0, byte(asn)}),
		},
	}
	if variant&8 != 0 {
		v := uint32(100 + variant%4*50)
		r.Attrs.LocalPref = &v
	}
	if variant&16 != 0 {
		v := uint32(variant % 7)
		r.Attrs.MED = &v
	}
	return r
}

// ribOps is the mutation surface shared by Table and the brute-force
// reference, so one decoded op stream drives both.
type ribOps interface {
	SetAdjIn(r *Route) Change
	WithdrawAdjIn(peer PeerKey, prefix netip.Prefix) Change
	DropPeer(peer PeerKey) []Change
	Originate(prefix netip.Prefix, attrs wire.PathAttrs) Change
	WithdrawLocal(prefix netip.Prefix) Change
}

// applyOp drives one decoded operation against a RIB and returns the
// resulting changes.
func applyOp(t ribOps, code, pi, qi int, variant uint8) []Change {
	prefix := fuzzPrefixes[qi]
	switch code {
	case 0, 1:
		return []Change{t.SetAdjIn(fuzzRoute(pi, prefix, variant))}
	case 2:
		return []Change{t.WithdrawAdjIn(fuzzPeers[pi], prefix)}
	case 3:
		return t.DropPeer(fuzzPeers[pi])
	case 4:
		attrs := wire.PathAttrs{Origin: wire.OriginIGP, ASPath: wire.NewASPath()}
		return []Change{t.Originate(prefix, attrs)}
	default:
		return []Change{t.WithdrawLocal(prefix)}
	}
}

// oracleRIB is the brute-force reference: plain Adj-RIB-In and local
// maps with no index, whose best route is recomputed from scratch on
// every query by scanning the local route and then every peer's route
// in sorted peer-key order through Better.
type oracleRIB struct {
	adjIn map[PeerKey]map[netip.Prefix]*Route
	local map[netip.Prefix]*Route
}

func newOracleRIB() *oracleRIB {
	return &oracleRIB{
		adjIn: make(map[PeerKey]map[netip.Prefix]*Route),
		local: make(map[netip.Prefix]*Route),
	}
}

func (o *oracleRIB) peers() []PeerKey {
	var out []PeerKey
	for k, m := range o.adjIn {
		if len(m) > 0 {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (o *oracleRIB) best(prefix netip.Prefix) *Route {
	best := o.local[prefix]
	for _, peer := range o.peers() {
		if r, ok := o.adjIn[peer][prefix]; ok && Better(r, best) {
			best = r
		}
	}
	return best
}

// mutate applies fn and reports the Loc-RIB transition of prefix.
func (o *oracleRIB) mutate(prefix netip.Prefix, fn func()) Change {
	old := o.best(prefix)
	fn()
	return Change{Prefix: prefix, Old: old, New: o.best(prefix)}
}

func (o *oracleRIB) SetAdjIn(r *Route) Change {
	return o.mutate(r.Prefix, func() {
		if o.adjIn[r.Peer] == nil {
			o.adjIn[r.Peer] = make(map[netip.Prefix]*Route)
		}
		o.adjIn[r.Peer][r.Prefix] = r
	})
}

func (o *oracleRIB) WithdrawAdjIn(peer PeerKey, prefix netip.Prefix) Change {
	return o.mutate(prefix, func() { delete(o.adjIn[peer], prefix) })
}

func (o *oracleRIB) DropPeer(peer PeerKey) []Change {
	var out []Change
	for _, p := range o.adjInPrefixes(peer) {
		if c := o.mutate(p, func() { delete(o.adjIn[peer], p) }); c.Changed() {
			out = append(out, c)
		}
	}
	delete(o.adjIn, peer)
	return out
}

func (o *oracleRIB) Originate(prefix netip.Prefix, attrs wire.PathAttrs) Change {
	return o.mutate(prefix, func() {
		o.local[prefix] = &Route{Prefix: prefix, Attrs: attrs, Local: true}
	})
}

func (o *oracleRIB) WithdrawLocal(prefix netip.Prefix) Change {
	return o.mutate(prefix, func() { delete(o.local, prefix) })
}

func (o *oracleRIB) adjInPrefixes(peer PeerKey) []netip.Prefix {
	var out []netip.Prefix
	for p := range o.adjIn[peer] {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return idr.PrefixLess(out[i], out[j]) })
	return out
}

// prefixes returns every prefix with a local or learned route, sorted.
func (o *oracleRIB) prefixes() []netip.Prefix {
	set := make(map[netip.Prefix]bool)
	for p := range o.local {
		set[p] = true
	}
	for _, m := range o.adjIn {
		for p := range m {
			set[p] = true
		}
	}
	var out []netip.Prefix
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return idr.PrefixLess(out[i], out[j]) })
	return out
}

// lookup is a linear longest-prefix match over every best route.
func (o *oracleRIB) lookup(addr netip.Addr) *Route {
	var out *Route
	for _, p := range o.prefixes() {
		if r := o.best(p); r != nil && p.Contains(addr) && (out == nil || p.Bits() > out.Prefix.Bits()) {
			out = r
		}
	}
	return out
}

// oracleProbes are longest-match probe addresses beyond the pool
// prefixes' own first addresses: inside the nested 10/8 family at
// several depths, and outside every pool prefix.
var oracleProbes = []netip.Addr{
	netip.MustParseAddr("10.0.2.200"),
	netip.MustParseAddr("10.1.255.255"),
	netip.MustParseAddr("10.200.0.1"),
	netip.MustParseAddr("11.0.0.1"),
	netip.MustParseAddr("2001:db8:ffff::1"),
	netip.MustParseAddr("2001:db9::1"),
}

// compareWithOracle asserts every observable view of the table agrees
// with the reference: Loc-RIB contents, enumerations, per-peer
// Adj-RIB-In and longest-match lookups for addresses inside and around
// every pool prefix.
func compareWithOracle(t *testing.T, tbl *Table, ref *oracleRIB) {
	t.Helper()
	var want []*Route
	for _, p := range ref.prefixes() {
		if r := ref.best(p); r != nil {
			want = append(want, r)
		}
	}
	got := tbl.BestRoutes()
	if len(got) != len(want) {
		t.Fatalf("BestRoutes length %d, oracle %d", len(got), len(want))
	}
	for i := range want {
		if !routesEq(got[i], want[i]) {
			t.Fatalf("BestRoutes[%d]: %v, oracle %v", i, got[i], want[i])
		}
	}
	gp, wp := tbl.Prefixes(), ref.prefixes()
	if len(gp) != len(wp) {
		t.Fatalf("Prefixes length %d, oracle %d", len(gp), len(wp))
	}
	for i := range wp {
		if gp[i] != wp[i] {
			t.Fatalf("Prefixes[%d]: %v, oracle %v", i, gp[i], wp[i])
		}
	}
	gk, wk := tbl.AdjInPeerKeys(), ref.peers()
	if len(gk) != len(wk) {
		t.Fatalf("AdjInPeerKeys length %d, oracle %d", len(gk), len(wk))
	}
	for i := range wk {
		if gk[i] != wk[i] {
			t.Fatalf("AdjInPeerKeys[%d]: %v, oracle %v", i, gk[i], wk[i])
		}
	}
	for _, peer := range fuzzPeers {
		ga, wa := tbl.AdjInPrefixes(peer), ref.adjInPrefixes(peer)
		if len(ga) != len(wa) {
			t.Fatalf("AdjInPrefixes(%s) length %d, oracle %d", peer, len(ga), len(wa))
		}
		for i := range wa {
			if ga[i] != wa[i] {
				t.Fatalf("AdjInPrefixes(%s)[%d]: %v, oracle %v", peer, i, ga[i], wa[i])
			}
		}
	}
	probes := append([]netip.Addr(nil), oracleProbes...)
	for _, p := range fuzzPrefixes {
		gr, _ := tbl.Best(p)
		if wr := ref.best(p); !routesEq(gr, wr) {
			t.Fatalf("Best(%v): %v, oracle %v", p, gr, wr)
		}
		probes = append(probes, p.Addr(), p.Addr().Next())
	}
	for _, addr := range probes {
		gr, ok := tbl.Lookup(addr)
		wr := ref.lookup(addr)
		if ok != (wr != nil) || !routesEq(gr, wr) {
			t.Fatalf("Lookup(%v): %v/%v, oracle %v", addr, gr, ok, wr)
		}
	}
}

// FuzzRIBDecisionOracle drives a random UPDATE/withdraw/drop/originate
// stream through the indexed Table and the brute-force oracleRIB,
// asserting every returned Change (DropPeer's sequence and order
// included) and every observable view stays identical — the candidate
// index, the length buckets and the length counters must be invisible.
func FuzzRIBDecisionOracle(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 1, 1, 8, 2, 0, 0, 0})
	f.Add([]byte{0, 0, 4, 24, 0, 1, 4, 16, 3, 0, 0, 0, 4, 0, 4, 0})
	f.Add([]byte{0, 2, 6, 9, 0, 3, 7, 25, 5, 0, 6, 0, 2, 2, 6, 0})
	// A MED cycle on one prefix: as2:0 (MED 5) beats as3:0 on router
	// ID, as3:0 beats as2:1 on router ID, and as2:1 (MED 1) beats
	// as2:0 on MED. Only the sorted-peer-key scan yields as3:0.
	f.Add([]byte{0, 0, 0, 19, 0, 1, 0, 22, 0, 2, 0, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		tbl, ref := NewTable(), newOracleRIB()
		for i := 0; i+3 < len(ops); i += 4 {
			code := int(ops[i] % 6)
			pi := int(ops[i+1] % 4)
			qi := int(ops[i+2]) % len(fuzzPrefixes)
			variant := ops[i+3]
			gc := applyOp(tbl, code, pi, qi, variant)
			wc := applyOp(ref, code, pi, qi, variant)
			if len(gc) != len(wc) {
				t.Fatalf("op %d: %d changes, oracle %d", i/4, len(gc), len(wc))
			}
			for j := range wc {
				if !changesEq(gc[j], wc[j]) {
					t.Fatalf("op %d change %d: %+v, oracle %+v", i/4, j, gc[j], wc[j])
				}
			}
		}
		compareWithOracle(t, tbl, ref)
	})
}

// The length counters that guide Lookup must track Loc-RIB insertions
// and removals exactly.
func TestLenCountTracksLocRIB(t *testing.T) {
	tbl := NewTable()
	for qi := range fuzzPrefixes {
		tbl.SetAdjIn(fuzzRoute(0, fuzzPrefixes[qi], 0))
	}
	for _, p := range fuzzPrefixes {
		if tbl.lenCount[p.Bits()] == 0 {
			t.Fatalf("lenCount[%d] = 0 after install", p.Bits())
		}
	}
	tbl.DropPeer(fuzzPeers[0])
	for bits := 0; bits <= maxPrefixBits; bits++ {
		if n := tbl.lenCount[bits]; n != 0 {
			t.Fatalf("lenCount[%d] = %d after drop, want 0", bits, n)
		}
	}
}
