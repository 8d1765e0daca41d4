package topology

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/idr"
)

// scanGraph is the brute-force oracle for Graph's adjacency index: a
// bare node set and edge map whose per-AS queries rescan every edge.
// Its query bodies are Graph's before the index existed.
type scanGraph struct {
	nodes map[idr.ASN]bool
	edges map[[2]idr.ASN]Edge
}

func newScanGraph() *scanGraph {
	return &scanGraph{nodes: map[idr.ASN]bool{}, edges: map[[2]idr.ASN]Edge{}}
}

func (s *scanGraph) addEdge(e Edge) error {
	if e.A == e.B {
		return fmt.Errorf("topology: self-loop on %v", e.A)
	}
	s.nodes[e.A], s.nodes[e.B] = true, true
	s.edges[edgeKey(e.A, e.B)] = e.Canonical()
	return nil
}

func (s *scanGraph) removeEdge(a, b idr.ASN) bool {
	k := edgeKey(a, b)
	_, ok := s.edges[k]
	delete(s.edges, k)
	return ok
}

func (s *scanGraph) clone() *scanGraph {
	c := newScanGraph()
	for n := range s.nodes {
		c.nodes[n] = true
	}
	for k, e := range s.edges {
		c.edges[k] = e
	}
	return c
}

func sortASNs(out []idr.ASN) []idr.ASN {
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (s *scanGraph) sortedNodes() []idr.ASN {
	out := make([]idr.ASN, 0, len(s.nodes))
	for n := range s.nodes {
		out = append(out, n)
	}
	return sortASNs(out)
}

func (s *scanGraph) sortedEdges() []Edge {
	out := make([]Edge, 0, len(s.edges))
	for _, e := range s.edges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		ki, kj := edgeKey(out[i].A, out[i].B), edgeKey(out[j].A, out[j].B)
		if ki[0] != kj[0] {
			return ki[0] < kj[0]
		}
		return ki[1] < kj[1]
	})
	return out
}

func (s *scanGraph) neighbors(asn idr.ASN) []idr.ASN {
	var out []idr.ASN
	for _, e := range s.edges {
		if e.A == asn {
			out = append(out, e.B)
		} else if e.B == asn {
			out = append(out, e.A)
		}
	}
	return sortASNs(out)
}

func (s *scanGraph) degree(asn idr.ASN) int {
	n := 0
	for _, e := range s.edges {
		if e.A == asn || e.B == asn {
			n++
		}
	}
	return n
}

func (s *scanGraph) providers(asn idr.ASN) []idr.ASN {
	var out []idr.ASN
	for _, e := range s.edges {
		if e.Rel == P2C && e.B == asn {
			out = append(out, e.A)
		}
	}
	return sortASNs(out)
}

func (s *scanGraph) customers(asn idr.ASN) []idr.ASN {
	var out []idr.ASN
	for _, e := range s.edges {
		if e.Rel == P2C && e.A == asn {
			out = append(out, e.B)
		}
	}
	return sortASNs(out)
}

func (s *scanGraph) peers(asn idr.ASN) []idr.ASN {
	var out []idr.ASN
	for _, e := range s.edges {
		if e.Rel != P2P {
			continue
		}
		if e.A == asn {
			out = append(out, e.B)
		} else if e.B == asn {
			out = append(out, e.A)
		}
	}
	return sortASNs(out)
}

func (s *scanGraph) connected() bool {
	nodes := s.sortedNodes()
	if len(nodes) == 0 {
		return true
	}
	seen := map[idr.ASN]bool{nodes[0]: true}
	queue := []idr.ASN{nodes[0]}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range s.neighbors(cur) {
			if !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	return len(seen) == len(nodes)
}

func (s *scanGraph) validate() error {
	for _, e := range s.sortedEdges() {
		if !s.nodes[e.A] || !s.nodes[e.B] {
			return fmt.Errorf("topology: edge %v-%v references unknown node", e.A, e.B)
		}
	}
	color := map[idr.ASN]int{}
	var visit func(idr.ASN) error
	visit = func(n idr.ASN) error {
		color[n] = 1
		for _, c := range s.customers(n) {
			switch color[c] {
			case 1:
				return fmt.Errorf("topology: provider-customer cycle through %v and %v", n, c)
			case 0:
				if err := visit(c); err != nil {
					return err
				}
			}
		}
		color[n] = 2
		return nil
	}
	for _, n := range s.sortedNodes() {
		if color[n] == 0 {
			if err := visit(n); err != nil {
				return err
			}
		}
	}
	return nil
}

// fuzzASNs bounds the fuzz's AS space so ops collide on the same
// pairs often; ASN 0 is in range because the graph accepts it.
const fuzzASNs = 9

func fuzzASN(b byte) idr.ASN { return idr.ASN(b % fuzzASNs) }

// fuzzRel picks P2P or P2C from the low bit of v.
func fuzzRel(v byte) Relationship {
	if v&1 == 0 {
		return P2P
	}
	return P2C
}

// compareWithScan checks every query the index serves against the
// oracle, for every AS in the fuzz's space (absent ones included).
func compareWithScan(t *testing.T, op int, g *Graph, ref *scanGraph) {
	t.Helper()
	errText := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	if g.NumNodes() != len(ref.nodes) || g.NumEdges() != len(ref.edges) {
		t.Fatalf("op %d: %d nodes / %d edges, oracle %d / %d", op, g.NumNodes(), g.NumEdges(), len(ref.nodes), len(ref.edges))
	}
	if got, want := g.Nodes(), ref.sortedNodes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("op %d: Nodes = %v, oracle %v", op, got, want)
	}
	if got, want := g.Edges(), ref.sortedEdges(); !reflect.DeepEqual(got, want) {
		t.Fatalf("op %d: Edges = %v, oracle %v", op, got, want)
	}
	if got, want := g.Connected(), ref.connected(); got != want {
		t.Fatalf("op %d: Connected = %v, oracle %v", op, got, want)
	}
	if got, want := errText(g.Validate()), errText(ref.validate()); got != want {
		t.Fatalf("op %d: Validate = %s, oracle %s", op, got, want)
	}
	for i := 0; i < fuzzASNs; i++ {
		asn := idr.ASN(i)
		if got, want := g.Degree(asn), ref.degree(asn); got != want {
			t.Fatalf("op %d: Degree(%v) = %d, oracle %d", op, asn, got, want)
		}
		for _, q := range []struct {
			name      string
			got, want []idr.ASN
		}{
			{"Neighbors", g.Neighbors(asn), ref.neighbors(asn)},
			{"Providers", g.Providers(asn), ref.providers(asn)},
			{"Customers", g.Customers(asn), ref.customers(asn)},
			{"Peers", g.Peers(asn), ref.peers(asn)},
		} {
			if !reflect.DeepEqual(q.got, q.want) {
				t.Fatalf("op %d: %s(%v) = %v, oracle %v", op, q.name, asn, q.got, q.want)
			}
			// The result is the caller's: scribbling on it must not
			// reach the graph (the next comparison would see it).
			for j := range q.got {
				q.got[j] = fuzzASNs + 1
			}
		}
	}
}

// FuzzGraphAdjacencyOracle drives AddNode / AddEdge / RemoveEdge /
// Clone streams through up to three Graphs and their scanGraph
// oracles, comparing every per-AS query after every op. Each 4-byte
// record is (op, a, b, v); v's high nibble picks the graph, so clones
// and originals are mutated independently and a shared backing array
// between them shows up as a mismatch.
func FuzzGraphAdjacencyOracle(f *testing.F) {
	// AddNode, then P2P and P2C adds, including a self-loop.
	f.Add([]byte{0, 5, 0, 0, 1, 1, 2, 0, 1, 2, 3, 1, 1, 4, 4, 0})
	// Re-add an existing pair as P2P, same-orientation P2C and
	// flipped P2C.
	f.Add([]byte{1, 1, 2, 1, 1, 2, 3, 1, 2, 0, 7, 0, 2, 0, 3, 1, 2, 1, 0, 2, 2, 0, 0, 2})
	// Remove a present edge (both argument orders) and an absent one.
	f.Add([]byte{1, 1, 2, 0, 1, 2, 3, 1, 1, 3, 4, 1, 4, 0, 0, 0, 4, 0, 0, 1, 3, 7, 8, 0})
	// Clone, then mutate the clone (slot 1) and the original (slot 0)
	// independently: adds, replacements and removals on each.
	f.Add([]byte{1, 1, 2, 1, 1, 2, 3, 0, 1, 1, 3, 1, 5, 0, 0, 0,
		1, 4, 1, 0x11, 4, 0, 0, 0x10, 2, 0, 0, 0x12, 1, 5, 6, 0x00, 4, 1, 0, 0x01, 2, 0, 0, 0x02})
	// A provider-customer cycle that Validate must report.
	f.Add([]byte{1, 1, 2, 1, 1, 2, 3, 1, 1, 3, 1, 1, 3, 3, 1, 0, 1, 1, 3, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		graphs, refs := []*Graph{New()}, []*scanGraph{newScanGraph()}
		for i := 0; i+3 < len(ops); i += 4 {
			code, a, b, v := ops[i]%6, ops[i+1], ops[i+2], ops[i+3]
			slot := int(v>>4) % len(graphs)
			g, ref := graphs[slot], refs[slot]
			switch code {
			case 0:
				g.AddNode(fuzzASN(a))
				ref.nodes[fuzzASN(a)] = true
			case 1:
				e := Edge{A: fuzzASN(a), B: fuzzASN(b), Rel: fuzzRel(v), Delay: time.Duration(v>>1&7) * time.Millisecond}
				gerr, werr := g.AddEdge(e), ref.addEdge(e)
				if (gerr == nil) != (werr == nil) {
					t.Fatalf("op %d: AddEdge(%+v) = %v, oracle %v", i/4, e, gerr, werr)
				}
			case 2:
				// Re-add an existing pair: as P2P, as P2C in its stored
				// orientation, or as P2C flipped.
				edges := ref.sortedEdges()
				if len(edges) == 0 {
					continue
				}
				e := edges[int(a)%len(edges)]
				e.Delay = time.Duration(b) * time.Millisecond
				switch (v & 0xf) % 3 {
				case 0:
					e.Rel = P2P
				case 1:
					e.Rel = P2C
				case 2:
					e.A, e.B, e.Rel = e.B, e.A, P2C
				}
				if err := g.AddEdge(e); err != nil {
					t.Fatalf("op %d: re-adding %+v: %v", i/4, e, err)
				}
				_ = ref.addEdge(e) // cannot fail: e is not a self-loop
			case 3:
				x, y := fuzzASN(a), fuzzASN(b)
				if got, want := g.RemoveEdge(x, y), ref.removeEdge(x, y); got != want {
					t.Fatalf("op %d: RemoveEdge(%v, %v) = %v, oracle %v", i/4, x, y, got, want)
				}
			case 4:
				edges := ref.sortedEdges()
				if len(edges) == 0 {
					continue
				}
				e := edges[int(a)%len(edges)]
				if v&1 == 1 {
					e.A, e.B = e.B, e.A
				}
				if !g.RemoveEdge(e.A, e.B) {
					t.Fatalf("op %d: RemoveEdge(%v, %v) missed a present edge", i/4, e.A, e.B)
				}
				ref.removeEdge(e.A, e.B)
			case 5:
				if len(graphs) < 3 {
					graphs, refs = append(graphs, g.Clone()), append(refs, ref.clone())
				} else {
					dst := (slot + 1) % len(graphs)
					graphs[dst], refs[dst] = g.Clone(), ref.clone()
				}
			}
			for s := range graphs {
				compareWithScan(t, i/4, graphs[s], refs[s])
			}
		}
	})
}
