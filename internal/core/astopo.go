package core

import (
	"cmp"
	"container/heap"
	"net/netip"
	"slices"
	"sort"

	"repro/internal/bgp/wire"
	"repro/internal/idr"
	"repro/internal/sdn/ofp"
)

// switchGraph is the compiled switch graph every recomputation reads:
// the members, their up intra-cluster links, the sub-cluster each one
// belongs to, and the external peering keys, all in the deterministic
// orders the route computation emits in. It is built on first use and
// dropped by every mutator that changes membership, a port's
// registration, intra-cluster flag or operational state, or the set of
// peerings, so one switch-graph change costs one build however many
// prefixes recompute afterwards.
type switchGraph struct {
	// members lists the cluster members ascending.
	members []idr.ASN
	// links lists each member's up intra-cluster links toward current
	// members, ascending by neighbor, one per neighbor through the
	// lowest-numbered up port. A port still flagged intra-cluster
	// toward an AS that has just left the cluster (mid MigrateOut,
	// before SetPortMembership re-flags it) leads nowhere.
	links map[idr.ASN][]memberLink
	// comp maps each member to its sub-cluster: the connected
	// components of the links, numbered from 1 in breadth-first order
	// from the lowest unvisited member.
	comp map[idr.ASN]int
	// sessKeys lists the external peering keys in (Border, Port) order.
	sessKeys []SessKey
}

// memberLink is one up intra-cluster link: the neighbor member and the
// port leading to it.
type memberLink struct {
	to   idr.ASN
	port uint32
}

// graph returns the compiled switch graph, building it if a mutator
// dropped it (c.sg = nil) since the last read.
func (c *Controller) graph() *switchGraph {
	if c.sg != nil {
		return c.sg
	}
	g := &switchGraph{
		members:  make([]idr.ASN, 0, len(c.members)),
		links:    make(map[idr.ASN][]memberLink, len(c.members)),
		comp:     make(map[idr.ASN]int, len(c.members)),
		sessKeys: sortedSessKeys(c.sessions),
	}
	for a := range c.members {
		g.members = append(g.members, a)
	}
	slices.Sort(g.members)
	for _, asn := range g.members {
		var ls []memberLink
		for port, pi := range c.members[asn].ports {
			if _, member := c.members[pi.neighbor]; pi.isMember && pi.up && member {
				ls = append(ls, memberLink{to: pi.neighbor, port: port})
			}
		}
		slices.SortFunc(ls, func(a, b memberLink) int {
			return cmp.Or(cmp.Compare(a.to, b.to), cmp.Compare(a.port, b.port))
		})
		// Parallel links: keep the lowest port toward each neighbor.
		g.links[asn] = slices.CompactFunc(ls, func(a, b memberLink) bool { return a.to == b.to })
	}
	id := 0
	var queue []idr.ASN
	for _, start := range g.members {
		if _, seen := g.comp[start]; seen {
			continue
		}
		id++
		g.comp[start] = id
		queue = append(queue[:0], start)
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, l := range g.links[cur] {
				if _, seen := g.comp[l.to]; !seen {
					g.comp[l.to] = id
					queue = append(queue, l.to)
				}
			}
		}
	}
	c.sg = g
	return g
}

// portTo returns member asn's up port leading to the neighbor member,
// the lowest-numbered when parallel links exist.
func (g *switchGraph) portTo(asn, neighbor idr.ASN) (uint32, bool) {
	ls := g.links[asn]
	i, found := slices.BinarySearchFunc(ls, neighbor, func(l memberLink, t idr.ASN) int { return cmp.Compare(l.to, t) })
	if !found {
		return 0, false
	}
	return ls[i].port, true
}

// subClusters maps each member to its sub-cluster id — the paper's
// disjoint sub-clusters, the connected components of the switch graph
// over links that are up.
func (c *Controller) subClusters() map[idr.ASN]int { return c.graph().comp }

// candidate is one usable egress for a prefix after the per-prefix AS
// topology graph transformation.
type candidate struct {
	key   SessKey
	attrs wire.PathAttrs
	cost  int
}

// candidatesFor applies the AS-topology-graph transformation for one
// prefix: collect the external routes and drop every egress whose AS
// path would re-enter the egress border's own sub-cluster — those
// paths cross the legacy world back into this very component and would
// loop. Paths through members of *other* sub-clusters remain usable
// (that is how disjoint sub-clusters reach each other over the legacy
// Internet).
func (c *Controller) candidatesFor(prefix netip.Prefix) []candidate {
	routes := c.extRoutes[prefix]
	if len(routes) == 0 {
		return nil
	}
	comp := c.subClusters()
	var out []candidate
	for _, k := range sortedSessKeys(routes) {
		attrs := routes[k]
		if !c.sessions[k].established {
			continue
		}
		if crossesComponent(attrs.ASPath, comp, comp[k.Border]) {
			continue
		}
		out = append(out, candidate{key: k, attrs: attrs, cost: 1 + attrs.ASPath.Length()})
	}
	return out
}

// crossesComponent reports whether path contains a member of
// sub-cluster id, walking the path once.
func crossesComponent(path wire.ASPath, comp map[idr.ASN]int, id int) bool {
	for _, seg := range path {
		for _, a := range seg.ASNs {
			if got, member := comp[a]; member && got == id {
				return true
			}
		}
	}
	return false
}

// routingResult is the outcome of Dijkstra for one prefix.
type routingResult struct {
	// dist is each member's total cost to the destination (absent =
	// unreachable).
	dist map[idr.ASN]int
	// next is the downstream member on the best path (absent for the
	// egress border itself and for the owner member).
	next map[idr.ASN]idr.ASN
	// egress maps each border member that exits directly to its chosen
	// candidate.
	egress map[idr.ASN]candidate
	// owner is the destination member for cluster-originated prefixes
	// (zero otherwise).
	owner idr.ASN
}

// pqItem is a Dijkstra frontier entry.
type pqItem struct {
	asn  idr.ASN
	dist int
}

type pq []pqItem

func (p pq) Len() int { return len(p) }
func (p pq) Less(i, j int) bool {
	if p[i].dist != p[j].dist {
		return p[i].dist < p[j].dist
	}
	return p[i].asn < p[j].asn
}
func (p pq) Swap(i, j int) { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x any)   { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() any {
	old := *p
	n := len(old)
	it := old[n-1]
	*p = old[:n-1]
	return it
}

// dijkstra computes every member's best path to the destination of
// prefix on the AS topology graph: either toward the owner member
// (cluster-originated) or toward the cheapest egress candidate.
// Intra-cluster hops cost 1; an egress costs 1 + external path length,
// making the total comparable to an AS-path length as BGP would see it.
func (c *Controller) dijkstra(prefix netip.Prefix) routingResult {
	res := routingResult{
		dist:   make(map[idr.ASN]int),
		next:   make(map[idr.ASN]idr.ASN),
		egress: make(map[idr.ASN]candidate),
	}
	var frontier pq
	if owner, ok := c.owned[prefix]; ok {
		// Cluster-originated: the owner is the zero-cost destination.
		res.owner = owner
		res.dist[owner] = 0
		heap.Push(&frontier, pqItem{asn: owner, dist: 0})
	}
	// External egresses are usable destinations too. For external
	// prefixes they are the only ones; for owned prefixes they give
	// members in *other* sub-clusters a way back to the owner over the
	// legacy world (design goal §2: an intra-cluster link failure must
	// not isolate the controlled ASes).
	best := make(map[idr.ASN]candidate)
	for _, cand := range c.candidatesFor(prefix) {
		cur, ok := best[cand.key.Border]
		if !ok || cand.cost < cur.cost {
			best[cand.key.Border] = cand
		}
	}
	borders := make([]idr.ASN, 0, len(best))
	for b := range best {
		borders = append(borders, b)
	}
	sort.Slice(borders, func(i, j int) bool { return borders[i] < borders[j] })
	for _, b := range borders {
		cand := best[b]
		if cur, seeded := res.dist[b]; seeded && cur <= cand.cost {
			continue // the owner itself, or a better seed
		}
		res.dist[b] = cand.cost
		res.egress[b] = cand
		heap.Push(&frontier, pqItem{asn: b, dist: cand.cost})
	}
	links := c.graph().links
	settled := make(map[idr.ASN]bool)
	for frontier.Len() > 0 {
		it := heap.Pop(&frontier).(pqItem)
		if settled[it.asn] || it.dist != res.dist[it.asn] {
			continue
		}
		settled[it.asn] = true
		for _, l := range links[it.asn] {
			nb := l.to
			nd := it.dist + 1
			cur, ok := res.dist[nb]
			if !ok || nd < cur {
				res.dist[nb] = nd
				res.next[nb] = it.asn
				delete(res.egress, nb) // better path is via a neighbor now
				heap.Push(&frontier, pqItem{asn: nb, dist: nd})
			}
		}
	}
	return res
}

// forwardingPath returns the member sequence from m to its egress (or
// owner), inclusive, following next pointers. ok is false when m has
// no route.
func (res *routingResult) forwardingPath(m idr.ASN) (path []idr.ASN, ok bool) {
	if _, reachable := res.dist[m]; !reachable {
		return nil, false
	}
	cur := m
	path = append(path, cur)
	for {
		nxt, more := res.next[cur]
		if !more {
			return path, true
		}
		cur = nxt
		path = append(path, cur)
		if len(path) > len(res.dist)+1 {
			// Defensive: next pointers must not cycle.
			return nil, false
		}
	}
}

// prependSequence prepends the member sequence onto an external path,
// merging into the leading AS_SEQUENCE segment when one exists so the
// result looks exactly like hop-by-hop eBGP prepending.
func prependSequence(members []idr.ASN, external wire.ASPath) wire.ASPath {
	out := external.Clone()
	for i := len(members) - 1; i >= 0; i-- {
		out = out.Prepend(members[i])
	}
	return out
}

// recomputePrefix recompiles flow rules and external announcements for
// one prefix — the per-prefix half of the paper's route selection.
func (c *Controller) recomputePrefix(prefix netip.Prefix) {
	res := c.dijkstra(prefix)
	c.pushFlows(prefix, res)
	c.updateAnnouncements(prefix, res)
}

// PathFrom returns the AS-level path member m currently uses toward
// prefix: the internal member sequence to the egress or owner, plus
// the chosen external route's path. ok is false when m has no route.
// (Monitoring helper — the data plane uses the compiled flow rules.)
func (c *Controller) PathFrom(m idr.ASN, prefix netip.Prefix) (wire.ASPath, bool) {
	if _, isMember := c.members[m]; !isMember {
		return nil, false
	}
	res := c.dijkstra(prefix)
	internal, ok := res.forwardingPath(m)
	if !ok {
		return nil, false
	}
	egressMember := internal[len(internal)-1]
	if res.owner != 0 && egressMember == res.owner {
		// Path excludes the querying member itself, mirroring how a
		// BGP router's Loc-RIB path excludes its own ASN.
		return wire.NewASPath(internal[1:]...), true
	}
	cand, isEgress := res.egress[egressMember]
	if !isEgress {
		return nil, false
	}
	return prependSequence(internal[1:], cand.attrs.ASPath), true
}

// flowPriority is the fixed priority used for IDR flow entries.
const flowPriority = 100

// pushFlows programs every member's flow entry for prefix.
func (c *Controller) pushFlows(prefix netip.Prefix, res routingResult) {
	g := c.graph()
	for _, asn := range g.members {
		m := c.members[asn]
		var mod ofp.FlowMod
		switch {
		case asn == res.owner && res.owner != 0:
			// The owner delivers locally; the switch's local-prefix
			// set handles it. Remove any stale transit entry.
			mod = ofp.FlowMod{Command: ofp.FlowDelete, Match: prefix}
		case res.egress[asn].key != SessKey{}:
			mod = ofp.FlowMod{
				Command: ofp.FlowAdd, Priority: flowPriority,
				Match: prefix, OutPort: res.egress[asn].key.Port,
			}
		default:
			nxt, ok := res.next[asn]
			if !ok {
				mod = ofp.FlowMod{Command: ofp.FlowDelete, Match: prefix}
				break
			}
			port, havePort := g.portTo(asn, nxt)
			if !havePort {
				mod = ofp.FlowMod{Command: ofp.FlowDelete, Match: prefix}
				break
			}
			mod = ofp.FlowMod{
				Command: ofp.FlowAdd, Priority: flowPriority,
				Match: prefix, OutPort: port,
			}
		}
		frame, err := ofp.Marshal(mod, c.nextXid())
		if err != nil {
			continue
		}
		if m.send(frame) == nil {
			c.stats.FlowModsSent++
		}
	}
}

// updateAnnouncements drives every external session's view of prefix:
// announce the border's best cluster path (with the full internal AS
// sequence, keeping the cluster transparent to the legacy world) or
// withdraw.
func (c *Controller) updateAnnouncements(prefix netip.Prefix, res routingResult) {
	for _, k := range c.sessionKeys() {
		es := c.sessions[k]
		if !es.established {
			continue
		}
		attrs, ok := c.announcementFor(k, es, prefix, res)
		if !ok {
			if es.sess.WithdrawPrefix(prefix) == nil {
				c.stats.WithdrawCommands++
			}
			continue
		}
		if es.sess.Announce(prefix, attrs) == nil {
			c.stats.AnnounceCommands++
		}
	}
}

// announcementFor builds the AS path announced for prefix on session k
// (border b): the internal member sequence from b to the egress or
// owner, then the external route's path. ok is false when nothing may
// be announced (no route, split horizon, or receiver loop).
func (c *Controller) announcementFor(k SessKey, es *extSession, prefix netip.Prefix, res routingResult) (wire.PathAttrs, bool) {
	b := k.Border
	internal, reachable := res.forwardingPath(b)
	if !reachable {
		return wire.PathAttrs{}, false
	}
	egressMember := internal[len(internal)-1]
	var attrs wire.PathAttrs
	if res.owner != 0 && egressMember == res.owner {
		// Cluster-originated and internally reachable: the path is
		// just the internal member sequence.
		attrs = wire.PathAttrs{Origin: wire.OriginIGP, ASPath: wire.NewASPath(internal...)}
	} else {
		cand, isEgress := res.egress[egressMember]
		if !isEgress {
			return wire.PathAttrs{}, false
		}
		// Split horizon: never announce back over the session the
		// route exits through.
		if cand.key == k {
			return wire.PathAttrs{}, false
		}
		attrs = cand.attrs.Clone()
		attrs.ASPath = prependSequence(internal, attrs.ASPath)
		attrs.MED = nil
		attrs.LocalPref = nil
	}
	// Receiver-side loop prevention: the neighbor would reject paths
	// containing itself anyway; skip the no-op announcement.
	if attrs.ASPath.Contains(es.remote) {
		return wire.PathAttrs{}, false
	}
	return attrs, true
}
