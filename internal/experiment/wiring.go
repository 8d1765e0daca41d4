package experiment

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/bgp"
	"repro/internal/bgp/rib"
	"repro/internal/collector"
	"repro/internal/frames"
	"repro/internal/idr"
	"repro/internal/monitor"
	"repro/internal/netem"
	"repro/internal/policy"
	"repro/internal/sdn"
	"repro/internal/topology"
)

// peerKeyTo is the conventional session key a router uses for its
// session toward a neighbor AS.
func peerKeyTo(remote idr.ASN) rib.PeerKey {
	return rib.PeerKey(fmt.Sprintf("to-%s", remote))
}

// buildLinks wires every topology edge: router-router peerings,
// router-switch external peerings, and switch-switch cluster links.
func (e *Experiment) buildLinks() error {
	for _, edge := range e.cfg.Graph.Edges() {
		if err := e.buildLink(edge); err != nil {
			return err
		}
	}
	return nil
}

func (e *Experiment) buildLink(edge topology.Edge) error {
	a, b := edge.A, edge.B
	nodeA, _ := e.Net.Node(a.String())
	nodeB, _ := e.Net.Node(b.String())
	delay := edge.Delay
	if delay == 0 {
		delay = e.cfg.LinkDelay
	}
	link, err := e.Net.Connect(nodeA, nodeB, netem.LinkConfig{
		Delay:  delay,
		Jitter: e.cfg.LinkJitter,
		Loss:   e.cfg.LinkLoss,
	})
	if err != nil {
		return err
	}
	key := linkKey(a, b)
	e.links[key] = link
	if _, err := e.Plan.AddLink(a, b); err != nil {
		return err
	}
	epA, epB := link.Endpoints()
	e.endpointOf[[2]idr.ASN{a, b}] = epA
	e.endpointOf[[2]idr.ASN{b, a}] = epB
	// One state-change subscription per link, dispatched through the
	// onLinkState table that wireLink rewrites on every migration.
	link.OnStateChange(func(up bool) {
		if h := e.onLinkState[key]; h != nil {
			h(up)
		}
	})
	return e.wireLink(a, b)
}

// linkEnd is one AS's attachment to a topology link: a BGP session on
// a legacy router (peer), or a data port on a member switch (sw, port).
type linkEnd struct {
	peer *bgp.Peer
	sw   *sdn.Switch
	port uint32
}

// setUp forwards a link transition to the end: a switch reports the
// port status to the controller, a router bounces its session.
func (x linkEnd) setUp(up bool) {
	switch {
	case x.sw != nil:
		_ = x.sw.NotifyPortState(x.port, up)
	case up:
		x.peer.TransportUp()
	default:
		x.peer.TransportDown()
	}
}

// linkHook is the one constructor of onLinkState entries. Its ends
// hear a transition in the order given by hookOrder.
func linkHook(ends [2]linkEnd) func(up bool) {
	return func(up bool) {
		ends[0].setUp(up)
		ends[1].setUp(up)
	}
}

// hookOrder puts a member end before a legacy end, and otherwise
// self's end first.
func hookOrder(self, nb linkEnd) [2]linkEnd {
	if self.sw == nil && nb.sw != nil {
		return [2]linkEnd{nb, self}
	}
	return [2]linkEnd{self, nb}
}

// wireLink wires the self-nb topology link for both ends' current
// roles. nb's end goes first: at build time it is created, during a
// migration the end nb already has is re-targeted at self's new role.
// Then self's end is created, the link's state hook installed, and on
// a running experiment the legacy sessions over a live link come up.
func (e *Experiment) wireLink(self, nb idr.ASN) error {
	nbEnd, err := e.wireEnd(nb, self)
	if err != nil {
		return err
	}
	selfEnd, err := e.wireEnd(self, nb)
	if err != nil {
		return err
	}
	key := linkKey(self, nb)
	ends := hookOrder(selfEnd, nbEnd)
	e.onLinkState[key] = linkHook(ends)
	if e.started && e.links[key].Up() {
		for _, x := range ends {
			if x.peer != nil {
				x.peer.TransportUp()
			}
		}
	}
	return nil
}

// wireEnd makes owner's end of the owner-remote link fit both ASes'
// current roles; it is the one place that decides between a
// router-router eBGP session, an intra-cluster switch-graph edge and
// an external peering the controller's speaker terminates. A legacy
// owner's end is a session toward remote: created, or reset when it
// exists so it re-establishes with whatever now answers on the link.
// A member owner's end is a switch port: created and registered, or
// re-flagged when it exists; facing a legacy remote it also gets a
// speaker peering.
func (e *Experiment) wireEnd(owner, remote idr.ASN) (linkEnd, error) {
	ep := e.endpointOf[[2]idr.ASN{owner, remote}]
	ln, _ := e.Plan.Link(owner, remote)
	addr, _ := ln.Addr(owner)
	if !e.members[owner] {
		if p, ok := e.Routers[owner].Peer(peerKeyTo(remote)); ok {
			p.TransportDown()
			return linkEnd{peer: p}, nil
		}
		p, err := e.addRouterPeer(owner, remote, ep, addr)
		return linkEnd{peer: p}, err
	}
	sw, remoteMember := e.Switches[owner], e.members[remote]
	port, ok := e.portOf[ep]
	switch {
	case !ok:
		var err error
		if port, err = sw.AddPort(ep.Send); err != nil {
			return linkEnd{}, err
		}
		e.portOf[ep] = port
		if err := e.Ctrl.RegisterPort(owner, port, remote, remoteMember); err != nil {
			return linkEnd{}, err
		}
	case remoteMember:
		if err := e.Ctrl.RemovePeering(owner, port); err != nil {
			return linkEnd{}, err
		}
		if err := e.Ctrl.SetPortMembership(owner, port, true); err != nil {
			return linkEnd{}, err
		}
	default:
		if err := e.Ctrl.SetPortMembership(owner, port, false); err != nil {
			return linkEnd{}, err
		}
	}
	if !remoteMember {
		id, err := e.Plan.RouterID(owner)
		if err != nil {
			return linkEnd{}, err
		}
		if err := e.Ctrl.AddExternalPeering(owner, port, remote, id, addr); err != nil {
			return linkEnd{}, err
		}
	}
	return linkEnd{sw: sw, port: port}, nil
}

// neighborOf builds the policy neighbor descriptor for remote as seen
// from local, using the neighbor-kind table precomputed at build time
// (pairs without a topology edge — e.g. the collector — resolve to
// KindNone).
func (e *Experiment) neighborOf(local, remote idr.ASN) policy.Neighbor {
	return policy.Neighbor{Key: peerKeyTo(remote), ASN: remote, Kind: e.kinds[[2]idr.ASN{local, remote}]}
}

func (e *Experiment) addRouterPeer(local, remote idr.ASN, ep *netem.Endpoint, addr netip.Addr) (*bgp.Peer, error) {
	r := e.Routers[local]
	key := peerKeyTo(remote)
	p, err := r.AddPeer(bgp.PeerConfig{
		Key:       key,
		RemoteASN: remote,
		Neighbor:  e.neighborOf(local, remote),
		NextHop:   addr,
		Send: func(b []byte) error {
			return ep.Send(frames.Encode(frames.KindBGP, b))
		},
	})
	if err != nil {
		return nil, err
	}
	e.keyOf[ep] = key
	e.peerEndpoint[local][key] = ep
	return p, nil
}

// buildCollector attaches the route collector to every legacy router.
func (e *Experiment) buildCollector() error {
	coll, err := collector.New(collector.Config{
		Clock:  e.K,
		Rand:   e.K.Rand(),
		Timers: e.cfg.Timers,
	})
	if err != nil {
		return err
	}
	e.Coll = coll
	collNode, err := e.Net.AddNode(CollectorNodeName)
	if err != nil {
		return err
	}
	collKeys := make(map[*netem.Endpoint]rib.PeerKey)
	collNode.OnMessage(func(from *netem.Endpoint, data []byte) {
		kind, payload, err := frames.Decode(data)
		if err != nil || kind != frames.KindBGP {
			return
		}
		coll.Router().Deliver(collKeys[from], payload)
	})
	for _, asn := range e.cfg.Graph.Nodes() {
		if e.members[asn] {
			continue // cluster members do not run BGP themselves
		}
		node, _ := e.Net.Node(asn.String())
		link, err := e.Net.Connect(node, collNode, netem.LinkConfig{Delay: e.cfg.ControlDelay})
		if err != nil {
			return err
		}
		epR, epC := link.Endpoints()
		// Router side: a normal peering toward the collector AS.
		pr, err := e.addRouterPeer(asn, coll.ASN(), epR, netip.AddrFrom4([4]byte{172, 31, 0, byte(asn)}))
		if err != nil {
			return err
		}
		// Collector side.
		key := collector.PeerKeyFor(asn)
		pc, err := coll.Router().AddPeer(bgp.PeerConfig{
			Key:       key,
			RemoteASN: asn,
			NextHop:   netip.AddrFrom4([4]byte{172, 31, 255, 1}),
			Send: func(b []byte) error {
				return epC.Send(frames.Encode(frames.KindBGP, b))
			},
		})
		if err != nil {
			return err
		}
		collKeys[epC] = key
		link.OnStateChange(func(up bool) {
			if up {
				pr.TransportUp()
				pc.TransportUp()
			} else {
				pr.TransportDown()
				pc.TransportDown()
			}
		})
	}
	return nil
}

// Start brings every transport up and starts the controller. It does
// not advance the clock; call WaitEstablished or RunFor next.
func (e *Experiment) Start() error {
	if e.started {
		return fmt.Errorf("experiment: already started")
	}
	e.started = true
	if e.Ctrl != nil {
		if err := e.Ctrl.Start(); err != nil {
			return err
		}
	}
	startRouter := func(r *bgp.Router) {
		for _, k := range sortedPeerKeys(r) {
			e.K.Go(r.Peers()[k].TransportUp)
		}
	}
	for _, asn := range e.ASNs() {
		if r, ok := e.Routers[asn]; ok {
			startRouter(r)
		}
	}
	if e.Coll != nil {
		startRouter(e.Coll.Router())
	}
	// Cluster speaker sessions come up via the controller's Start.
	return nil
}

// expectedSessions counts the sessions that should establish.
func (e *Experiment) expectedSessions() (routerSessions int) {
	//lint:maporder integer sums of per-router session counts commute; Peers only reads
	for _, r := range e.Routers {
		routerSessions += len(r.Peers())
	}
	if e.Coll != nil {
		routerSessions += len(e.Coll.Router().Peers())
	}
	return routerSessions
}

// WaitEstablished runs the clock until every BGP session (router side)
// is Established, or errors after timeout.
func (e *Experiment) WaitEstablished(timeout time.Duration) error {
	deadline := e.K.Now().Add(timeout)
	for {
		established := 0
		//lint:maporder integer sums of per-router session counts commute; EstablishedCount only reads
		for _, r := range e.Routers {
			established += r.EstablishedCount()
		}
		if e.Coll != nil {
			established += e.Coll.Router().EstablishedCount()
		}
		if established == e.expectedSessions() {
			return nil
		}
		if !e.K.Now().Before(deadline) {
			return fmt.Errorf("experiment: %d/%d sessions established after %v: %w",
				established, e.expectedSessions(), timeout, monitor.ErrTimeout)
		}
		if err := e.K.RunFor(100 * time.Millisecond); err != nil {
			return err
		}
	}
}
