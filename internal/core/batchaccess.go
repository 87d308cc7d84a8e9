package core

import (
	"math/bits"

	"ftcsn/internal/arena"
	"ftcsn/internal/bitset"
	"ftcsn/internal/graph"
)

// BatchAccessChecker is the word-parallel majority-access certifier: it
// computes the Lemma-6 / Corollary-2 access counts of ALL terminals in one
// pair of level-ordered sweeps over the CSR, instead of the 2n per-terminal
// BFS traversals of AccessChecker.
//
// The classic batched-reachability trick: every vertex is assigned one
// 64-bit lane word in which bit l means "source l of the current strip
// reaches this vertex". Sources are processed in strips of up to 64 lanes;
// a strip seeds input i's bit at its terminal, then one pass over vertices
// in topological-level order (graph.Levels) ORs each vertex's word into
// the heads of its OutAllowed-permitted CSR slots — propagating 64
// single-source reachability frontiers per machine word operation. At the
// middle stage the per-lane column populations are the access counts. The output side
// is the mirror image on the reverse CSR under InAllowed. Total cost is
// O(E·n/64) word operations.
//
// The lane rows live in a bitset.Set of capacity 64·NumVertices (vertex
// v's word is Words()[v]); seeding goes through the bounds-checked Set so
// a bad terminal ID cannot silently corrupt a neighboring row.
//
// Correctness contract: the checker engages only when the masks carry the
// CSR-slot traversal bytes and no Busy information (the bytes encode
// EdgeOK and VertexOK but not Busy — same contract as the routing fast
// path), and only on graphs with a topological leveling (graph.Levels),
// where the level-order pass visits every edge after its tail's word is
// final. On level-sorted graphs — every staged MIN — the pass is the
// historical plain-ID sweep; otherwise it walks the cached level-sorted
// permutation, which is how expander, hammock-substituted, mirror, hyperx
// and circulant networks get word-parallel certification. Under those
// conditions the set of middle-stage vertices a terminal reaches — and so
// every count and the OK verdict — is bit-identical to the BFS (locked by
// the differential harness and FuzzBatchedMajorityAccess).
//
// The output half has a second source. The routing engine's
// output-reachability guide (route.Engine.GuideWords) holds, per vertex,
// the outputs an allowed-slot path reaches — the same relation the
// backward sweep computes, so the column populations of its middle-stage
// rows are the output access counts (majorityAccessInto with a guide).
// The two rules differ only in how a path may pass through a terminal:
// the guide enters a terminal only as a path's end (AdjTerminal), while
// access counting treats terminals as ordinary vertices. guideExact
// records, once per network, that no terminal above the middle level has
// an out-edge — no terminal can sit inside a middle-to-output path — so
// the two agree; elsewhere the backward sweep runs.
type BatchAccessChecker struct {
	nw   *Network
	lv   *graph.Levels // topological leveling; nil when the graph is cyclic
	rows *bitset.Set
	// guideExact: the guide's middle-stage rows give exact output access
	// counts on this network (see above).
	guideExact bool
	// lanes is the strip width in sources (≤ 64). It exists so tests can
	// exercise multi-strip scheduling and partial strips on small networks;
	// production use keeps the full word.
	lanes int
}

// NewBatchAccessChecker returns a word-parallel certifier for nw. Networks
// whose graph has no leveling (cyclic; see graph.Levels) yield a checker
// whose MajorityAccessInto always reports unsupported.
func NewBatchAccessChecker(nw *Network) *BatchAccessChecker {
	return NewBatchAccessCheckerIn(nw, nil)
}

// NewBatchAccessCheckerIn is NewBatchAccessChecker drawing the lane rows —
// the checker's one large buffer — from a (nil a allocates normally).
func NewBatchAccessCheckerIn(nw *Network, a *arena.Arena) *BatchAccessChecker {
	//ftlint:ignore hotpath constructor: reached from the trial path only through MajorityAccessInto's one-time lazy init
	bc := &BatchAccessChecker{nw: nw, lanes: 64}
	if lv, err := nw.G.Levels(); err == nil && nw.MiddleStage+1 < len(lv.First()) {
		bc.lv = lv
		bc.rows = bitset.NewIn(64*nw.G.NumVertices(), a)
		level, mid := lv.PerVertex(), int32(nw.MiddleStage)
		bc.guideExact = !terminalAbove(nw.G, nw.Inputs(), level, mid) &&
			!terminalAbove(nw.G, nw.Outputs(), level, mid)
	}
	return bc
}

// terminalAbove reports whether one of the terminals ts lies above level
// mid and has an out-edge, i.e. could be an interior vertex of a path from
// the middle level to an output.
func terminalAbove(g *graph.Graph, ts, level []int32, mid int32) bool {
	for _, v := range ts {
		if level[v] > mid && g.OutDegree(v) > 0 {
			return true
		}
	}
	return false
}

// Supported reports whether the checker can run on its network at all
// (leveled graph). Mask applicability is still checked per call.
func (bc *BatchAccessChecker) Supported() bool { return bc.lv != nil }

// MajorityAccessInto runs the whole-network majority-access check
// word-parallel, writing into rep exactly what the per-terminal BFS loop
// would. It returns false — leaving rep untouched — when the fast path
// does not apply: unsupported graph, missing traversal bytes, or non-nil
// Busy (lane words carry no busy information, so busy-exempt certification
// stays on the BFS path).
func (bc *BatchAccessChecker) MajorityAccessInto(m Masks, rep *MajorityReport) bool {
	return bc.majorityAccessInto(m, nil, 0, rep)
}

// majorityAccessInto is MajorityAccessInto with an optional
// output-reachability guide (route.Engine.GuideWords, current for m's
// traversal bytes): when it is given and the network is guideExact, the
// output half is read off the guide's middle-stage rows instead of the
// backward sweep.
func (bc *BatchAccessChecker) majorityAccessInto(m Masks, guide []uint64, groups int, rep *MajorityReport) bool {
	if bc.lv == nil || m.Busy != nil || m.OutAllowed == nil || m.InAllowed == nil {
		return false
	}
	nw := bc.nw
	mid := nw.MiddleStage
	rep.MiddleSize = int(nw.StageSize[mid])
	rep.InputAccess = growInts(rep.InputAccess, len(nw.Inputs()))
	rep.OutputAccess = growInts(rep.OutputAccess, len(nw.Outputs()))
	bc.countForward(nw.Inputs(), mid, m.OutAllowed, rep.InputAccess)
	if bc.guideExact && guide != nil && groups == (len(nw.Outputs())+63)>>6 &&
		len(guide) == nw.G.NumVertices()*groups {
		bc.countFromGuide(guide, groups, mid, rep.OutputAccess)
	} else {
		bc.countBackward(nw.Outputs(), mid, m.InAllowed, rep.OutputAccess)
	}
	need := rep.MiddleSize/2 + 1
	rep.OK = true
	for _, c := range rep.InputAccess {
		if c < need {
			rep.OK = false
			break
		}
	}
	if rep.OK {
		for _, c := range rep.OutputAccess {
			if c < need {
				rep.OK = false
				break
			}
		}
	}
	return true
}

// countForward fills counts[i] with the number of targetStage vertices
// source srcs[i] reaches along allowed forward slots, strip by strip.
func (bc *BatchAccessChecker) countForward(srcs []int32, targetStage int, allowed []uint8, counts []int) {
	start, _, heads := bc.nw.G.CSROut()
	words := bc.rows.Words()
	first := bc.lv.First()
	sweepEnd := first[targetStage] // first position of the target level
	midEnd := first[targetStage+1]
	order := bc.lv.Order()
	for base := 0; base < len(srcs); base += bc.lanes {
		k := min(bc.lanes, len(srcs)-base)
		bc.rows.Reset()
		for l := 0; l < k; l++ {
			bc.rows.Set(int(srcs[base+l])<<6 | l)
		}
		// Level order, so by the time v is expanded every allowed path
		// into v has already deposited its lanes: one pass suffices.
		// Vertices at or past the target level receive lane bits but are
		// never expanded — exactly the BFS's "visit but do not traverse
		// the target stage" rule. On level-sorted graphs (order == nil)
		// positions ARE vertex IDs: the historical plain-ID sweep.
		if order == nil {
			for v := int32(0); v < sweepEnd; v++ {
				w := words[v]
				if w == 0 {
					continue
				}
				for idx := start[v]; idx < start[v+1]; idx++ {
					if allowed[idx]&graph.AdjBlocked == 0 {
						words[heads[idx]] |= w
					}
				}
			}
		} else {
			for p := int32(0); p < sweepEnd; p++ {
				v := order[p]
				w := words[v]
				if w == 0 {
					continue
				}
				for idx := start[v]; idx < start[v+1]; idx++ {
					if allowed[idx]&graph.AdjBlocked == 0 {
						words[heads[idx]] |= w
					}
				}
			}
		}
		// Transpose the middle-level block: each set bit is one (source,
		// middle-vertex) reachability pair.
		for l := 0; l < k; l++ {
			counts[base+l] = 0
		}
		for p := sweepEnd; p < midEnd; p++ {
			v := p
			if order != nil {
				v = order[p]
			}
			for w := words[v]; w != 0; w &= w - 1 {
				counts[base+bits.TrailingZeros64(w)]++
			}
		}
	}
}

// countFromGuide fills counts[j] with the number of targetStage vertices
// whose guide row holds output j's bit: the column populations of the
// guide's middle-stage block. Each 64-output group is summed into a
// bit-sliced counter (word k holds bit k of all 64 lane counts), so a row
// costs a short carry chain instead of one increment per set bit.
func (bc *BatchAccessChecker) countFromGuide(guide []uint64, groups, targetStage int, counts []int) {
	first := bc.lv.First()
	order := bc.lv.Order()
	for g := 0; g < groups; g++ {
		var sum [32]uint64
		for p := first[targetStage]; p < first[targetStage+1]; p++ {
			v := p
			if order != nil {
				v = order[p]
			}
			for k, carry := 0, guide[int(v)*groups+g]; carry != 0; k++ {
				sum[k], carry = sum[k]^carry, sum[k]&carry
			}
		}
		for j := g << 6; j < min(len(counts), (g+1)<<6); j++ {
			c := 0
			for k, w := range sum {
				c |= int(w>>(uint(j)&63)&1) << k
			}
			counts[j] = c
		}
	}
}

// countBackward is countForward on the reverse CSR: sources are outputs,
// propagation walks levels downward, and InAllowed gates the slots.
func (bc *BatchAccessChecker) countBackward(srcs []int32, targetStage int, allowed []uint8, counts []int) {
	start, _, tails := bc.nw.G.CSRIn()
	words := bc.rows.Words()
	first := bc.lv.First()
	midFirst := first[targetStage]
	sweepStart := first[targetStage+1] // first position past the target level
	nPos := int32(bc.nw.G.NumVertices())
	order := bc.lv.Order()
	for base := 0; base < len(srcs); base += bc.lanes {
		k := min(bc.lanes, len(srcs)-base)
		bc.rows.Reset()
		for l := 0; l < k; l++ {
			bc.rows.Set(int(srcs[base+l])<<6 | l)
		}
		if order == nil {
			for v := nPos - 1; v >= sweepStart; v-- {
				w := words[v]
				if w == 0 {
					continue
				}
				for idx := start[v]; idx < start[v+1]; idx++ {
					if allowed[idx]&graph.AdjBlocked == 0 {
						words[tails[idx]] |= w
					}
				}
			}
		} else {
			for p := nPos - 1; p >= sweepStart; p-- {
				v := order[p]
				w := words[v]
				if w == 0 {
					continue
				}
				for idx := start[v]; idx < start[v+1]; idx++ {
					if allowed[idx]&graph.AdjBlocked == 0 {
						words[tails[idx]] |= w
					}
				}
			}
		}
		for l := 0; l < k; l++ {
			counts[base+l] = 0
		}
		for p := midFirst; p < sweepStart; p++ {
			v := p
			if order != nil {
				v = order[p]
			}
			for w := words[v]; w != 0; w &= w - 1 {
				counts[base+bits.TrailingZeros64(w)]++
			}
		}
	}
}
