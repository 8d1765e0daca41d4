package lab

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/idr"
	"repro/internal/topology"
)

// vfDegreeDigest is the SHA-256 of the 500 members that degree
// placement selects on `internet 1000` (topology seed 1), rendered as
// fmt.Sprint of the ascending ASN slice. It pins the vf figure's
// cluster against any change in Graph.Degree or the sort around it.
const vfDegreeDigest = "d185cbf705b1183cfdbf5207e07bd5b5dc73a59c9d026c7fe7139f7595e3c1e6"

// TestPlacementDegreeOnVFGraph pins degree placement on the graph the
// vf figure and the vf-internet1000 benchmark workload run on.
func TestPlacementDegreeOnVFGraph(t *testing.T) {
	g, err := TopoSpec{Kind: "internet", N: 1000}.Build(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 1000 || g.NumEdges() != 9887 {
		t.Fatalf("internet 1000 (seed 1): %d nodes, %d edges, want 1000/9887", g.NumNodes(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	members, err := Placement{Strategy: PlaceDegree, K: 500}.Select(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 500 {
		t.Fatalf("selected %d members, want 500", len(members))
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprint(members)))); got != vfDegreeDigest {
		t.Fatalf("degree 500 member digest = %s, want %s", got, vfDegreeDigest)
	}
}

// TestPlacementDegreeTieBreak pins the lower-ASN tie-break among ASes
// of equal degree, on a graph whose edges are added high ASN first so
// that insertion order and ASN order disagree.
func TestPlacementDegreeTieBreak(t *testing.T) {
	g := topology.New()
	// Degrees: 8, 9 → 3; 4, 7 → 2; 2, 6 → 1; 5 → 0 (isolated).
	for _, e := range []topology.Edge{
		{A: 9, B: 8, Rel: topology.P2P},
		{A: 9, B: 7, Rel: topology.P2C},
		{A: 9, B: 4, Rel: topology.P2C},
		{A: 8, B: 6, Rel: topology.P2C},
		{A: 7, B: 4, Rel: topology.P2P},
		{A: 2, B: 8, Rel: topology.P2P},
	} {
		if err := g.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	g.AddNode(5)
	cases := []struct {
		k    int
		want []idr.ASN
	}{
		{1, []idr.ASN{8}},
		{2, []idr.ASN{8, 9}},
		{3, []idr.ASN{4, 8, 9}},
		{4, []idr.ASN{4, 7, 8, 9}},
		{5, []idr.ASN{2, 4, 7, 8, 9}},
		{6, []idr.ASN{2, 4, 6, 7, 8, 9}},
		{7, []idr.ASN{2, 4, 5, 6, 7, 8, 9}},
	}
	for _, c := range cases {
		got, err := Placement{Strategy: PlaceDegree, K: c.k}.Select(g)
		if err != nil {
			t.Fatalf("degree %d: %v", c.k, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("degree %d = %v, want %v", c.k, got, c.want)
		}
	}
}
