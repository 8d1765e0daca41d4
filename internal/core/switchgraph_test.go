package core

import (
	"cmp"
	"net/netip"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/bgp/wire"
	"repro/internal/idr"
	"repro/internal/sdn/ofp"
	"repro/internal/sim"
	"repro/internal/speaker"
)

// The scan* functions are the oracle for the compiled switch graph:
// the per-call scans of the controller's member and port maps that the
// route computation ran before the graph was compiled once per change.

// scanMembers lists the members ascending.
func scanMembers(c *Controller) []idr.ASN {
	out := make([]idr.ASN, 0, len(c.members))
	for a := range c.members {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// scanUpMemberNeighbors lists the members adjacent to asn over up
// intra-cluster links, sorted, once per parallel link.
func scanUpMemberNeighbors(c *Controller, asn idr.ASN) []idr.ASN {
	m := c.members[asn]
	var out []idr.ASN
	for _, pi := range m.ports {
		if _, member := c.members[pi.neighbor]; pi.isMember && pi.up && member {
			out = append(out, pi.neighbor)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// scanSubClusters numbers the connected components of the up
// intra-cluster links breadth-first from the lowest member.
func scanSubClusters(c *Controller) map[idr.ASN]int {
	comp := make(map[idr.ASN]int, len(c.members))
	id := 0
	for _, start := range scanMembers(c) {
		if _, seen := comp[start]; seen {
			continue
		}
		id++
		queue := []idr.ASN{start}
		comp[start] = id
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range scanUpMemberNeighbors(c, cur) {
				if _, seen := comp[nb]; !seen {
					comp[nb] = id
					queue = append(queue, nb)
				}
			}
		}
	}
	return comp
}

// scanPortToMember returns member asn's lowest up intra-cluster port
// toward neighbor.
func scanPortToMember(c *Controller, asn, neighbor idr.ASN) (uint32, bool) {
	m := c.members[asn]
	best := uint32(0)
	found := false
	for port, pi := range m.ports {
		if pi.isMember && pi.up && pi.neighbor == neighbor {
			if !found || port < best {
				best = port
				found = true
			}
		}
	}
	return best, found
}

// scanSessionKeys sorts the external peering keys by (Border, Port).
func scanSessionKeys(c *Controller) []SessKey {
	keys := make([]SessKey, 0, len(c.sessions))
	for k := range c.sessions {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b SessKey) int {
		if a.Border != b.Border {
			return cmp.Compare(a.Border, b.Border)
		}
		return cmp.Compare(a.Port, b.Port)
	})
	return keys
}

// scanCandidatesFor filters prefix's external routes by testing every
// member of the egress border's sub-cluster against the AS path.
func scanCandidatesFor(c *Controller, prefix netip.Prefix, comp map[idr.ASN]int) []candidate {
	routes := c.extRoutes[prefix]
	if len(routes) == 0 {
		return nil
	}
	var out []candidate
	for _, k := range sortedSessKeys(routes) {
		attrs := routes[k]
		if !c.sessions[k].established {
			continue
		}
		reenters := false
		for other := range c.members {
			if comp[other] == comp[k.Border] && attrs.ASPath.Contains(other) {
				reenters = true
				break
			}
		}
		if reenters {
			continue
		}
		out = append(out, candidate{key: k, attrs: attrs, cost: 1 + attrs.ASPath.Length()})
	}
	return out
}

// checkSwitchGraph compares the controller's compiled switch graph, and
// the candidate filter that reads it, against the scans.
func checkSwitchGraph(t *testing.T, c *Controller, step int) {
	t.Helper()
	g := c.graph()
	members := scanMembers(c)
	if !slices.Equal(g.members, members) {
		t.Fatalf("step %d: members %v, scan %v", step, g.members, members)
	}
	if got := c.Members(); !slices.Equal(got, members) {
		t.Fatalf("step %d: Members() %v, scan %v", step, got, members)
	}
	comp := scanSubClusters(c)
	if !reflect.DeepEqual(c.subClusters(), comp) {
		t.Fatalf("step %d: sub-clusters %v, scan %v", step, c.subClusters(), comp)
	}
	if len(g.links) != len(members) {
		t.Fatalf("step %d: links for %d members, want %d", step, len(g.links), len(members))
	}
	for _, m := range members {
		var got []idr.ASN
		for _, l := range g.links[m] {
			got = append(got, l.to)
		}
		// Parallel links repeat a neighbor in the scan; the graph keeps
		// one link per neighbor, which neither the component walk nor
		// Dijkstra can tell apart.
		want := slices.Compact(scanUpMemberNeighbors(c, m))
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: member %v neighbors %v, scan %v", step, m, got, want)
		}
		for _, nb := range members {
			gp, gok := g.portTo(m, nb)
			wp, wok := scanPortToMember(c, m, nb)
			if gp != wp || gok != wok {
				t.Fatalf("step %d: port %v->%v = %d,%v, scan %d,%v", step, m, nb, gp, gok, wp, wok)
			}
		}
	}
	if keys := scanSessionKeys(c); !slices.Equal(g.sessKeys, keys) {
		t.Fatalf("step %d: session keys %v, scan %v", step, g.sessKeys, keys)
	}
	for _, p := range fuzzPrefixes {
		got, want := c.candidatesFor(p), scanCandidatesFor(c, p, comp)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: %v candidates %v, scan %v", step, p, got, want)
		}
	}
}

// Fuzz op codes; each op is one 4-byte record {op, x, y, z}.
const (
	opAddMember     = iota // AddMember(member x)
	opMemberPort           // RegisterPort(member x, port z, toward member y)
	opExternalPort         // RegisterPort(member x, port z, toward legacy y) + AddExternalPeering, up unless y&4
	opPortStatus           // PortStatus(member x, port z, up = y odd) through HandleControl
	opSetMembership        // SetPortMembership(member x, port z, intra = y odd), dropping or adding the peering
	opRemoveMember         // RemoveMember(member x), then re-flag the ports that faced it
	opRoute                // UPDATE on session x (brought up first) for prefix y (withdrawal when y >= 128), path from z
	opRoundTrip            // State, rebuild the wiring, RestoreState
	numOps
)

var fuzzPrefixes = []netip.Prefix{
	netip.MustParsePrefix("10.0.1.0/24"),
	netip.MustParsePrefix("10.0.2.0/24"),
	netip.MustParsePrefix("10.0.3.0/24"),
}

// fuzzASNs is the path alphabet: the member pool (1..6) and four
// legacy ASes.
var fuzzASNs = []idr.ASN{1, 2, 3, 4, 5, 6, 100, 101, 102, 103}

func fuzzMember(b byte) idr.ASN { return idr.ASN(1 + b%6) }
func fuzzPort(b byte) uint32    { return uint32(1 + b%8) }
func fuzzRouterID(a idr.ASN) idr.RouterID {
	return idr.RouterIDFromAddr(netip.AddrFrom4([4]byte{172, 16, 0, byte(a)}))
}

var fuzzNextHop = netip.MustParseAddr("100.64.0.1")

func nopSend([]byte) error { return nil }

// switchGraphHarness drives one controller through decoded ops.
type switchGraphHarness struct {
	k        *sim.Kernel
	c        *Controller
	debounce time.Duration
}

func (h *switchGraphHarness) newController(t *testing.T) *Controller {
	t.Helper()
	c, err := New(Config{Clock: h.k, Debounce: h.debounce})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// deliver hands the session on key one BGP message from its remote
// AS, as a PacketIn from the border switch would.
func (h *switchGraphHarness) deliver(t *testing.T, key SessKey, msg wire.Message) {
	t.Helper()
	frame, err := wire.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	h.c.sessions[key].sess.Deliver(frame)
}

// establish completes the session's handshake (OPEN, KEEPALIVE from
// the remote, no hold time) unless it is established already. A
// session whose port is down stays down.
func (h *switchGraphHarness) establish(t *testing.T, key SessKey) {
	es := h.c.sessions[key]
	if es.sess.State() == speaker.StateEstablished {
		return
	}
	h.deliver(t, key, wire.Open{AS: es.remote, ID: fuzzRouterID(es.remote)})
	h.deliver(t, key, wire.Keepalive{})
}

// peer adds the external peering on a registered external port and,
// when est is set, brings it up.
func (h *switchGraphHarness) peer(t *testing.T, m idr.ASN, port uint32, est bool) {
	pi := h.c.members[m].ports[port]
	if h.c.AddExternalPeering(m, port, pi.neighbor, fuzzRouterID(m), fuzzNextHop) == nil && est {
		h.establish(t, pi.sess.key)
	}
}

// roundTrip rebuilds the current wiring on a fresh controller (all
// ports up, as a build leaves them), reads its switch graph so a stale
// one would be cached, and restores the captured state onto it.
func (h *switchGraphHarness) roundTrip(t *testing.T) {
	st := h.c.State()
	fresh := h.newController(t)
	for _, asn := range scanMembers(h.c) {
		if err := fresh.AddMember(asn, nopSend); err != nil {
			t.Fatal(err)
		}
	}
	// Register every port external first: an intra-cluster port needs
	// its neighbor registered, so flags are set once all members exist.
	for _, asn := range scanMembers(h.c) {
		m := h.c.members[asn]
		for port, pi := range m.ports {
			if err := fresh.RegisterPort(asn, port, pi.neighbor, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, asn := range scanMembers(h.c) {
		for port, pi := range h.c.members[asn].ports {
			if pi.isMember {
				if err := fresh.SetPortMembership(asn, port, true); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, key := range scanSessionKeys(h.c) {
		es := h.c.sessions[key]
		if err := fresh.AddExternalPeering(key.Border, key.Port, es.remote, fuzzRouterID(key.Border), fuzzNextHop); err != nil {
			t.Fatal(err)
		}
	}
	fresh.graph()
	arms, err := fresh.RestoreState(st)
	if err != nil {
		t.Fatal(err)
	}
	sim.ArmAll(arms)
	h.c = fresh
}

func (h *switchGraphHarness) apply(t *testing.T, rec []byte, step int) {
	op, x, y, z := rec[0]%numOps, rec[1], rec[2], rec[3]
	c := h.c
	switch op {
	case opAddMember:
		_ = c.AddMember(fuzzMember(x), nopSend)
	case opMemberPort:
		_ = c.RegisterPort(fuzzMember(x), fuzzPort(z), fuzzMember(y), true)
	case opExternalPort:
		m, port := fuzzMember(x), fuzzPort(z)
		if c.RegisterPort(m, port, idr.ASN(100+y%4), false) == nil {
			h.peer(t, m, port, y&4 == 0)
		}
	case opPortStatus:
		frame, err := ofp.Marshal(ofp.PortStatus{Port: fuzzPort(z), Up: y&1 == 1}, 1)
		if err != nil {
			t.Fatal(err)
		}
		_ = c.HandleControl(fuzzMember(x), frame)
	case opSetMembership:
		m, port := fuzzMember(x), fuzzPort(z)
		mb, ok := c.members[m]
		if !ok || mb.ports[port] == nil {
			return
		}
		pi := mb.ports[port]
		intra := y&1 == 1
		if intra && pi.sess != nil {
			if err := c.RemovePeering(m, port); err != nil {
				t.Fatal(err)
			}
			checkSwitchGraph(t, c, step)
		}
		if c.SetPortMembership(m, port, intra) == nil && !intra && pi.sess == nil && y&2 == 0 {
			checkSwitchGraph(t, c, step)
			h.peer(t, m, port, y&4 == 0)
		}
	case opRemoveMember:
		m := fuzzMember(x)
		if c.RemoveMember(m) != nil {
			return
		}
		// Mid-migration: ports of other members still say
		// intra-cluster toward the departed AS.
		checkSwitchGraph(t, c, step)
		for _, asn := range scanMembers(c) {
			for port, pi := range c.members[asn].ports {
				if pi.isMember && pi.neighbor == m {
					if err := c.SetPortMembership(asn, port, false); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	case opRoute:
		keys := scanSessionKeys(c)
		if len(keys) == 0 {
			return
		}
		key := keys[int(x)%len(keys)]
		p := fuzzPrefixes[int(y&0x7f)%len(fuzzPrefixes)]
		h.establish(t, key)
		if y >= 128 {
			h.deliver(t, key, wire.Update{Withdrawn: []netip.Prefix{p}})
			return
		}
		path := []idr.ASN{c.sessions[key].remote}
		for i := 0; i < int(z%3); i++ {
			path = append(path, fuzzASNs[(int(z/3)+i)%len(fuzzASNs)])
		}
		h.deliver(t, key, wire.Update{NLRI: []netip.Prefix{p}, Attrs: wire.PathAttrs{
			Origin: wire.OriginIGP, ASPath: wire.NewASPath(path...), NextHop: fuzzNextHop,
		}})
	case opRoundTrip:
		h.roundTrip(t)
	}
}

// FuzzSwitchGraphOracle drives a controller through random membership,
// port, peering, route and snapshot round-trip streams and, after every
// op, compares the compiled switch graph — members, sub-clusters,
// neighbor lists, port choice, session keys — and the one-walk
// candidate filter against the per-call scans. The first byte picks
// debounced or synchronous recomputation; synchronous recomputation
// reads the graph inside the mutators themselves.
func FuzzSwitchGraphOracle(f *testing.F) {
	rec := func(op, x, y, z byte) []byte { return []byte{op, x, y, z} }
	seq := func(sync bool, recs ...[]byte) []byte {
		out := []byte{0}
		if sync {
			out[0] = 1
		}
		for _, r := range recs {
			out = append(out, r...)
		}
		return out
	}
	// A line of members 1-2-3: 1 port 1 -> 2, 2 port 2 -> 1, 2 port 1
	// -> 3, 3 port 2 -> 2; peerings on 1 port 3 (AS 100) and 3 port 3
	// (AS 101), sorted session indexes 0 and 1.
	line := [][]byte{
		rec(opAddMember, 0, 0, 0), rec(opAddMember, 1, 0, 0), rec(opAddMember, 2, 0, 0),
		rec(opMemberPort, 0, 1, 0), rec(opMemberPort, 1, 0, 1),
		rec(opMemberPort, 1, 2, 0), rec(opMemberPort, 2, 1, 1),
		rec(opExternalPort, 0, 0, 2), rec(opExternalPort, 2, 1, 2),
	}
	// A path is the session's remote AS, then z%3 hops from fuzzASNs
	// starting at index z/3.
	routes := [][]byte{
		rec(opRoute, 0, 0, 4),  // border 1, prefix 0: [100 2] re-enters
		rec(opRoute, 0, 1, 7),  // border 1, prefix 1: [100 3] re-enters until 3 splits off
		rec(opRoute, 1, 0, 4),  // border 3, prefix 0: [101 2] re-enters until 2-3 splits
		rec(opRoute, 1, 1, 0),  // border 3, prefix 1: [101]
		rec(opRoute, 0, 2, 20), // border 1, prefix 2: [100 100 101]
	}
	with := func(tail ...[]byte) [][]byte {
		out := append(slices.Clone(line), routes...)
		return append(out, tail...)
	}
	// Partition 2-3 and heal it.
	partition := with(rec(opPortStatus, 1, 0, 0), rec(opPortStatus, 2, 0, 1),
		rec(opPortStatus, 1, 1, 0), rec(opPortStatus, 2, 1, 1))
	f.Add(seq(false, partition...))
	f.Add(seq(true, partition...))
	// A snapshot of the partitioned cluster restored onto a fresh build.
	f.Add(seq(false, with(rec(opPortStatus, 1, 0, 0), rec(opPortStatus, 2, 0, 1),
		rec(opRoundTrip, 0, 0, 0), rec(opRoute, 0, 1, 7))...))
	// Migrate member 2 out (synchronously), then back in.
	f.Add(seq(true, with(rec(opRemoveMember, 1, 0, 0), rec(opAddMember, 1, 0, 0),
		rec(opMemberPort, 1, 0, 1), rec(opSetMembership, 0, 1, 0))...))
	// Migrate member 1 out synchronously while both of its peerings
	// (AS 100 on port 3, AS 101 on port 4) carry routes: each peering's
	// teardown recomputes inside RemoveMember.
	f.Add(seq(true, with(rec(opExternalPort, 0, 1, 3), rec(opRoute, 1, 2, 0),
		rec(opRemoveMember, 0, 0, 0))...))
	// A parallel link 1 port 6 -> 2 takes over when port 1 fails, turns
	// external with a peering toward AS 2, and back (RemovePeering).
	f.Add(seq(false, with(rec(opMemberPort, 0, 1, 5), rec(opPortStatus, 0, 0, 0),
		rec(opSetMembership, 0, 0, 5), rec(opPortStatus, 0, 1, 0),
		rec(opSetMembership, 0, 1, 5))...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1+4*256 {
			return
		}
		h := &switchGraphHarness{k: sim.NewKernel(1), debounce: 100 * time.Millisecond}
		if data[0]&1 == 1 {
			h.debounce = -1
		}
		h.c = h.newController(t)
		if err := h.c.Start(); err != nil {
			t.Fatal(err)
		}
		for i, step := 1, 0; i+4 <= len(data); i, step = i+4, step+1 {
			h.apply(t, data[i:i+4], step)
			checkSwitchGraph(t, h.c, step)
		}
	})
}
