// Package overlays derives the "well-behaved" overlay topologies of
// Section 1.4's corollary from a well-formed tree.
//
// Once every node holds a unique rank in [0, n) (which the tree
// construction provides), any overlay whose neighborhoods are index
// arithmetic on ranks can be established in O(log n) further rounds:
// each node computes its neighbor ranks locally and discovers the
// owning identifiers by the same ranked-ring routing the tree
// construction used. This package provides the rank arithmetic and
// materializes the overlay graphs for verification; the examples use
// them for routing demonstrations.
package overlays

import (
	"fmt"

	"overlay/internal/graphx"
)

// Ring returns the rank ring: rank r ↔ rank r+1 (mod n). Degree 2,
// diameter ⌊n/2⌋ — the building block for the other overlays.
func Ring(nodeAt []int) *graphx.Graph {
	n := len(nodeAt)
	g := graphx.NewGraph(n)
	if n < 2 {
		return g
	}
	for r := 0; r < n; r++ {
		s := (r + 1) % n
		if r < s || n == 2 && r == 0 {
			g.AddEdge(nodeAt[r], nodeAt[s])
		}
	}
	if n > 2 {
		g.AddEdge(nodeAt[n-1], nodeAt[0])
	}
	return g
}

// Chord returns the finger ring: rank r connects to ranks r+2^k mod n
// for all 2^k < n. Degree O(log n), diameter O(log n); subsumes
// butterfly-style routing on arbitrary n.
func Chord(nodeAt []int) *graphx.Graph {
	n := len(nodeAt)
	g := graphx.NewGraph(n)
	// Rank edge {r, r+2^a mod n} is also rank edge {s, s+2^b mod n} for
	// s = r+2^a mod n exactly when 2^a + 2^b = n, i.e. when n-2^a is a
	// power of two. The scan meets the pair first from the smaller of r
	// and s, so the repeat is the one whose far end wrapped below r.
	for r := 0; r < n; r++ {
		for step := 1; step < n; step <<= 1 {
			s := (r + step) % n
			if s < r && isPow2(n-step) {
				continue
			}
			g.AddEdge(min(nodeAt[r], nodeAt[s]), max(nodeAt[r], nodeAt[s]))
		}
	}
	return g
}

// isPow2 reports whether x is a positive power of two.
func isPow2(x int) bool { return x > 0 && x&(x-1) == 0 }

// Hypercube returns the (possibly incomplete) hypercube: rank r
// connects to r XOR 2^b whenever the partner rank exists. For n a
// power of two this is the exact hypercube of degree and diameter
// log₂ n; for other n the missing corners are simply absent, and
// connectivity is retained because bit 0 edges chain neighbors.
func Hypercube(nodeAt []int) *graphx.Graph {
	n := len(nodeAt)
	g := graphx.NewGraph(n)
	for r := 0; r < n; r++ {
		for b := 1; b < n; b <<= 1 {
			s := r ^ b
			if s < n && r < s {
				g.AddEdge(nodeAt[r], nodeAt[s])
			}
		}
	}
	return g
}

// DeBruijn returns the binary De Bruijn overlay on arbitrary n: rank r
// connects to ranks 2r mod n and 2r+1 mod n. Constant degree (≤ 4
// counting in-edges) and O(log n) diameter.
func DeBruijn(nodeAt []int) *graphx.Graph {
	n := len(nodeAt)
	g := graphx.NewGraph(n)
	// Rank edge {r, s} repeats only when r and s each name the other as
	// a target (2r and 2r+1 differ mod n for every n > 1). The scan
	// meets the pair first from the smaller rank, so the repeat is the
	// one whose target s is below r and names r back.
	for r := 0; r < n; r++ {
		for _, s := range [2]int{(2 * r) % n, (2*r + 1) % n} {
			if s == r || s < r && (r == (2*s)%n || r == (2*s+1)%n) {
				continue
			}
			g.AddEdge(min(nodeAt[r], nodeAt[s]), max(nodeAt[r], nodeAt[s]))
		}
	}
	return g
}

// RouteChord computes the greedy finger-routing path between two ranks
// on the Chord overlay, returning the rank sequence. It demonstrates
// the O(log n) routing the corollary promises and is exercised by the
// p2p example. Panics on out-of-range ranks.
func RouteChord(n, from, to int) []int {
	if from < 0 || from >= n || to < 0 || to >= n {
		panic(fmt.Sprintf("overlays: route %d->%d out of range n=%d", from, to, n))
	}
	path := []int{from}
	cur := from
	for cur != to {
		d := (to - cur + n) % n
		step := 1
		for step*2 <= d {
			step *= 2
		}
		cur = (cur + step) % n
		path = append(path, cur)
	}
	return path
}
