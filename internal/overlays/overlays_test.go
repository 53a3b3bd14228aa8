package overlays

import (
	"slices"
	"testing"
	"testing/quick"

	"overlay/internal/graphx"
	"overlay/internal/rng"
	"overlay/internal/sim"
)

func identity(n int) []int {
	nodeAt := make([]int, n)
	for i := range nodeAt {
		nodeAt[i] = i
	}
	return nodeAt
}

func TestRing(t *testing.T) {
	g := Ring(identity(8))
	if !g.IsConnected() || g.NumEdges() != 8 || g.MaxDegree() != 2 {
		t.Errorf("ring: connected=%v edges=%d deg=%d", g.IsConnected(), g.NumEdges(), g.MaxDegree())
	}
	g2 := Ring(identity(2))
	if g2.NumEdges() != 1 {
		t.Errorf("2-ring edges = %d, want 1", g2.NumEdges())
	}
	if Ring(identity(1)).NumEdges() != 0 {
		t.Error("1-ring should be empty")
	}
}

func TestChordDiameterAndDegree(t *testing.T) {
	for _, n := range []int{2, 7, 16, 100, 257} {
		g := Chord(identity(n))
		if !g.IsConnected() {
			t.Fatalf("n=%d: chord disconnected", n)
		}
		lg := sim.LogBound(n)
		if d := g.Diameter(); d > lg {
			t.Errorf("n=%d: chord diameter %d > log n = %d", n, d, lg)
		}
		if deg := g.MaxDegree(); deg > 2*lg+2 {
			t.Errorf("n=%d: chord degree %d > 2 log n + 2", n, deg)
		}
	}
}

// chordByMap is the Chord construction that deduplicates by probing
// a map of emitted node pairs; it stays here as the oracle for the
// arithmetic dedup.
func chordByMap(nodeAt []int) *graphx.Graph {
	n := len(nodeAt)
	g := graphx.NewGraph(n)
	seen := make(map[[2]int]bool, 2*n)
	for r := 0; r < n; r++ {
		for step := 1; step < n; step <<= 1 {
			s := (r + step) % n
			u, v := nodeAt[r], nodeAt[s]
			if u > v {
				u, v = v, u
			}
			if u != v && !seen[[2]int{u, v}] {
				seen[[2]int{u, v}] = true
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// TestChordMatchesMapDedup pins the arithmetic dedup to the map
// oracle: the same edges in the same insertion order, hence the same
// edge list and the same neighbor order at every node, over random
// rank permutations of every small n and of power-of-two and
// non-power-of-two large n.
func TestChordMatchesMapDedup(t *testing.T) {
	src := rng.New(0xc0d)
	sizes := []int{4096, 4100}
	for n := 2; n <= 130; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		nodeAt := src.Perm(n)
		got, want := Chord(nodeAt), chordByMap(nodeAt)
		if !slices.Equal(got.Edges(), want.Edges()) {
			t.Fatalf("n=%d: Chord edges differ from the map-deduplicated construction", n)
		}
		for u := 0; u < n; u++ {
			if !slices.Equal(got.Neighbors(u), want.Neighbors(u)) {
				t.Fatalf("n=%d: node %d neighbor order %v, oracle %v", n, u, got.Neighbors(u), want.Neighbors(u))
			}
		}
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(identity(16))
	if !g.IsConnected() || g.MaxDegree() != 4 || g.Diameter() != 4 {
		t.Errorf("16-cube: deg=%d diam=%d", g.MaxDegree(), g.Diameter())
	}
	// Incomplete hypercube stays connected.
	for _, n := range []int{3, 11, 25, 100} {
		if !Hypercube(identity(n)).IsConnected() {
			t.Errorf("incomplete hypercube n=%d disconnected", n)
		}
	}
}

func TestDeBruijn(t *testing.T) {
	for _, n := range []int{4, 10, 64, 127} {
		g := DeBruijn(identity(n))
		if !g.IsConnected() {
			t.Fatalf("de Bruijn n=%d disconnected", n)
		}
		if d := g.Diameter(); d > 2*sim.LogBound(n) {
			t.Errorf("de Bruijn n=%d diameter %d > 2 log n", n, d)
		}
		if deg := g.MaxDegree(); deg > 4 {
			t.Errorf("de Bruijn n=%d degree %d > 4", n, deg)
		}
	}
}

// deBruijnByMap is the De Bruijn construction that deduplicates by
// probing a map of emitted node pairs; it stays here as the oracle for
// the arithmetic dedup.
func deBruijnByMap(nodeAt []int) *graphx.Graph {
	n := len(nodeAt)
	g := graphx.NewGraph(n)
	seen := make(map[[2]int]bool, 2*n)
	for r := 0; r < n; r++ {
		for _, s := range []int{(2 * r) % n, (2*r + 1) % n} {
			u, v := nodeAt[r], nodeAt[s]
			if u > v {
				u, v = v, u
			}
			if u != v && !seen[[2]int{u, v}] {
				seen[[2]int{u, v}] = true
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// TestDeBruijnMatchesMapDedup pins the arithmetic dedup to the map
// oracle, edge list and per-node neighbor order alike, over random
// rank permutations of every small n and of power-of-two and
// non-power-of-two large n.
func TestDeBruijnMatchesMapDedup(t *testing.T) {
	src := rng.New(0xdeb)
	sizes := []int{4096, 4100}
	for n := 1; n <= 130; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		nodeAt := src.Perm(n)
		got, want := DeBruijn(nodeAt), deBruijnByMap(nodeAt)
		if !slices.Equal(got.Edges(), want.Edges()) {
			t.Fatalf("n=%d: DeBruijn edges differ from the map-deduplicated construction", n)
		}
		for u := 0; u < n; u++ {
			if !slices.Equal(got.Neighbors(u), want.Neighbors(u)) {
				t.Fatalf("n=%d: node %d neighbor order %v, oracle %v", n, u, got.Neighbors(u), want.Neighbors(u))
			}
		}
	}
}

func TestOverlaysUsePermutation(t *testing.T) {
	// nodeAt permutes node labels; graphs must be isomorphic to the
	// identity versions (checked by degree sequence and connectivity).
	nodeAt := []int{3, 1, 4, 0, 2}
	g := Chord(nodeAt)
	h := Chord(identity(5))
	if g.NumEdges() != h.NumEdges() || !g.IsConnected() {
		t.Error("permuted chord differs structurally")
	}
}

func TestRouteChord(t *testing.T) {
	path := RouteChord(16, 3, 12)
	if path[0] != 3 || path[len(path)-1] != 12 {
		t.Fatalf("path endpoints wrong: %v", path)
	}
	if len(path) > sim.LogBound(16)+2 {
		t.Errorf("path %v longer than log n hops", path)
	}
	// Each hop must be a chord finger (power-of-two step).
	for i := 1; i < len(path); i++ {
		d := (path[i] - path[i-1] + 16) % 16
		if d&(d-1) != 0 || d == 0 {
			t.Errorf("hop %d->%d is not a finger", path[i-1], path[i])
		}
	}
}

func TestRouteChordProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 3 + src.Intn(97)
		from := src.Intn(n)
		to := src.Intn(n)
		path := RouteChord(n, from, to)
		return path[0] == from && path[len(path)-1] == to && len(path) <= sim.LogBound(n)+2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRouteChordPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range route did not panic")
		}
	}()
	RouteChord(4, 0, 9)
}
