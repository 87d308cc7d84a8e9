package core

import (
	"ftcsn/internal/arena"
	"ftcsn/internal/fault"
	"ftcsn/internal/graph"
)

// MaskUpdater maintains repair masks incrementally: given the diff of edge
// states between consecutive fault trials (fault.BatchInjector.ApplyNext),
// Apply recomputes only the stage-neighborhoods of the changed edges —
// each changed edge's endpoints, and the switches incident to any endpoint
// whose usability flipped — instead of the O(E) rescan of RepairMasksInto.
// It also keeps the masks' CSR-slot-aligned traversal byte arrays
// (Masks.OutAllowed/InAllowed) current, so the access-certificate BFS and
// the router see the update for free.
//
// Stamp is the batched pipeline's form: it treats every trial as the
// fault-free baseline plus that trial's damage. It puts back to baseline
// the vertices and edges the previous Stamp damaged (its journal), then
// applies the discard repair of the new failure list directly, so its
// cost is proportional to the two trials' damage and never rescans a
// vertex's incident switches.
//
// Dirty sets are epoch-stamped, so per-trial bookkeeping allocates nothing
// and costs O(1) to reset. Equivalence with the from-scratch rescan is
// locked by FuzzIncrementalRepairMasks.
type MaskUpdater struct {
	g *graph.Graph

	vEpoch  []uint32
	eEpoch  []uint32
	vCur    uint32
	eCur    uint32
	dirtyV  []int32
	dirtyE  []int32
	flipped []int32 // vertices whose usability actually flipped in the last Apply

	// Stamp's journal: the vertices the masks currently discard and the
	// edges they currently block, everything else being at the fault-free
	// baseline. stale marks masks the journal does not describe (after
	// Init on a faulted instance, or an Apply); the next Stamp then resets
	// them to baseline in full.
	damV, damE []int32
	stale      bool
}

// NewMaskUpdater returns an updater for graphs over g.
func NewMaskUpdater(g *graph.Graph) *MaskUpdater { return NewMaskUpdaterIn(g, nil) }

// NewMaskUpdaterIn is NewMaskUpdater drawing the epoch tables from a (nil
// a allocates normally).
func NewMaskUpdaterIn(g *graph.Graph, a *arena.Arena) *MaskUpdater {
	return &MaskUpdater{
		g:      g,
		vEpoch: a.U32(g.NumVertices()),
		eEpoch: a.U32(g.NumEdges()),
	}
}

// Init fully recomputes m from inst — the paper's discard repair, exactly
// as RepairMasksInto — and builds the combined traversal arrays, reusing
// m's existing byte buffers (RepairMasksInto drops the stale references,
// but the backing capacity — possibly arena-owned — is kept and refilled).
// Call it once per (instance, masks) pairing; afterwards keep the pair
// current with Apply.
func (mu *MaskUpdater) Init(inst *fault.Instance, m *Masks) {
	outBuf, inBuf := m.OutAllowed, m.InAllowed
	RepairMasksInto(inst, m)
	m.OutAllowed = mu.g.BuildOutAllowed(m.EdgeOK, m.VertexOK, outBuf)
	m.InAllowed = mu.g.BuildInAllowed(m.EdgeOK, m.VertexOK, inBuf)
	mu.damV, mu.damE = mu.damV[:0], mu.damE[:0]
	mu.stale = inst.NumFailed() > 0
}

// Stamp sets m to the discard repair of the failure list failed (switch
// IDs; the failure mode does not matter to the repair): it puts back to
// the fault-free baseline what the previous Stamp damaged, then discards
// every non-terminal endpoint of a failed switch and blocks the failed
// switches and every switch incident to a discarded vertex. m must come
// from Init; afterwards the result equals RepairMasksInto plus
// BuildOutAllowed/BuildInAllowed on an instance with exactly these
// failures. It returns the damage — the discarded vertices and the
// blocked edges, each once — valid until the next call. That is the
// change list, relative to the fault-free masks, that
// route.Engine.MasksDamaged takes.
//
//ftcsn:hotpath per-trial mask update of the batched pipeline; O(damage), pinned by TestEvaluatorCertAllocFree
func (mu *MaskUpdater) Stamp(m *Masks, failed []int32) (vertices, edges []int32) {
	g := mu.g
	if mu.stale {
		for v := range m.VertexOK {
			m.VertexOK[v] = true
		}
		for e := range m.EdgeOK {
			m.EdgeOK[e] = true
		}
		for i := range m.OutAllowed {
			m.OutAllowed[i] &^= graph.AdjBlocked
			m.InAllowed[i] &^= graph.AdjBlocked
		}
		mu.stale = false
	} else {
		for _, v := range mu.damV {
			m.VertexOK[v] = true
		}
		for _, e := range mu.damE {
			m.EdgeOK[e] = true
			m.OutAllowed[g.OutSlot(e)] &^= graph.AdjBlocked
			m.InAllowed[g.InSlot(e)] &^= graph.AdjBlocked
		}
	}
	mu.bump()
	mu.damV, mu.damE = mu.damV[:0], mu.damE[:0]
	for _, e := range failed {
		mu.block(m, e)
		mu.discard(m, g.EdgeFrom(e))
		mu.discard(m, g.EdgeTo(e))
	}
	return mu.damV, mu.damE
}

// discard removes non-terminal v from the repaired network and blocks
// every switch incident to it, once per Stamp.
func (mu *MaskUpdater) discard(m *Masks, v int32) {
	if mu.g.IsTerminal(v) || mu.vEpoch[v] == mu.vCur {
		return
	}
	mu.vEpoch[v] = mu.vCur
	m.VertexOK[v] = false
	mu.damV = append(mu.damV, v)
	for _, e := range mu.g.OutEdges(v) {
		mu.block(m, e)
	}
	for _, e := range mu.g.InEdges(v) {
		mu.block(m, e)
	}
}

// block marks switch e unusable in m, once per Stamp: Stamp starts from
// the fault-free bytes, so a set AdjBlocked bit means e is already listed.
func (mu *MaskUpdater) block(m *Masks, e int32) {
	slot := mu.g.OutSlot(e)
	if m.OutAllowed[slot]&graph.AdjBlocked != 0 {
		return
	}
	m.OutAllowed[slot] |= graph.AdjBlocked
	m.InAllowed[mu.g.InSlot(e)] |= graph.AdjBlocked
	m.EdgeOK[e] = false
	mu.damE = append(mu.damE, e)
}

// Apply updates m for the given edge-state changes. m must be current for
// inst's state before the diff was applied (via Init or a previous Apply).
// It returns the IDs of the edges whose mask entries were recomputed — a
// superset of those that actually changed — valid until the next call.
func (mu *MaskUpdater) Apply(inst *fault.Instance, m *Masks, diff []fault.DiffEntry) []int32 {
	g := mu.g
	mu.stale = true
	mu.bump()
	mu.dirtyV = mu.dirtyV[:0]
	mu.dirtyE = mu.dirtyE[:0]
	mu.flipped = mu.flipped[:0]
	for _, d := range diff {
		mu.markEdge(d.Edge)
		mu.markVertex(g.EdgeFrom(d.Edge))
		mu.markVertex(g.EdgeTo(d.Edge))
	}
	// Usability of a vertex depends only on its incident switches: it is
	// discarded iff it is a non-terminal touching a failed switch.
	for _, v := range mu.dirtyV {
		ok := g.IsTerminal(v) || !hasFailedIncident(inst, g, v)
		//ftlint:ignore seamcontract audited: the mask maintainer itself — it derives the masks and traversal bytes everyone else reads
		if ok == m.VertexOK[v] {
			continue
		}
		m.VertexOK[v] = ok
		mu.flipped = append(mu.flipped, v)
		// A flipped vertex invalidates every incident switch's entry.
		for _, e := range g.OutEdges(v) {
			mu.markEdge(e)
		}
		for _, e := range g.InEdges(v) {
			mu.markEdge(e)
		}
	}
	for _, e := range mu.dirtyE {
		u, w := g.EdgeFrom(e), g.EdgeTo(e)
		//ftlint:ignore seamcontract audited: the mask maintainer itself — it derives the masks and traversal bytes everyone else reads
		ok := inst.Edge[e] == fault.Normal && m.VertexOK[u] && m.VertexOK[w]
		m.EdgeOK[e] = ok
		setAllowedBit(m.OutAllowed, g.OutSlot(e), ok)
		setAllowedBit(m.InAllowed, g.InSlot(e), ok)
	}
	return mu.dirtyE
}

// ChangedVertices returns the vertices whose usability flipped in the
// last Apply (not the merely-touched endpoints) — together with Apply's
// returned edge list, the exact change set an engine needs to refresh
// derived state incrementally (route.ShardedEngine.MasksChangedDiff).
// Valid until the next Apply.
func (mu *MaskUpdater) ChangedVertices() []int32 { return mu.flipped }

// Revert undoes a previously applied diff on both the instance and the
// masks: it restores every entry's Old state (fault.RevertDiff) and then
// re-derives the affected mask neighborhood exactly as Apply does — legal
// because Apply reads only the diff's edge IDs against inst's current
// state. The returned edge list (and ChangedVertices) describe the revert
// itself, ready to hand to MasksChangedDiff. Note fault.RevertDiff's
// caveat: a BatchInjector's applied-list tracking is not updated — re-
// apply the diff (or Rebase) before the injector's next ApplyNext.
func (mu *MaskUpdater) Revert(inst *fault.Instance, m *Masks, diff []fault.DiffEntry) []int32 {
	fault.RevertDiff(inst, diff)
	return mu.Apply(inst, m, diff)
}

// setAllowedBit updates the AdjBlocked bit of one traversal byte, leaving
// the static AdjTerminal bit intact.
func setAllowedBit(allowed []uint8, slot int32, ok bool) {
	b := allowed[slot] &^ graph.AdjBlocked
	if !ok {
		b |= graph.AdjBlocked
	}
	allowed[slot] = b
}

// hasFailedIncident reports whether any switch incident to v failed.
func hasFailedIncident(inst *fault.Instance, g *graph.Graph, v int32) bool {
	for _, e := range g.OutEdges(v) {
		//ftlint:ignore seamcontract audited: mask-maintainer helper reading raw fault state to derive vertex usability
		if inst.Edge[e] != fault.Normal {
			return true
		}
	}
	for _, e := range g.InEdges(v) {
		//ftlint:ignore seamcontract audited: mask-maintainer helper reading raw fault state to derive vertex usability
		if inst.Edge[e] != fault.Normal {
			return true
		}
	}
	return false
}

func (mu *MaskUpdater) bump() {
	mu.vCur++
	if mu.vCur == 0 {
		for i := range mu.vEpoch {
			mu.vEpoch[i] = 0
		}
		mu.vCur = 1
	}
	mu.eCur++
	if mu.eCur == 0 {
		for i := range mu.eEpoch {
			mu.eEpoch[i] = 0
		}
		mu.eCur = 1
	}
}

func (mu *MaskUpdater) markVertex(v int32) {
	if mu.vEpoch[v] != mu.vCur {
		mu.vEpoch[v] = mu.vCur
		mu.dirtyV = append(mu.dirtyV, v)
	}
}

func (mu *MaskUpdater) markEdge(e int32) {
	if mu.eEpoch[e] != mu.eCur {
		mu.eEpoch[e] = mu.eCur
		mu.dirtyE = append(mu.dirtyE, e)
	}
}
