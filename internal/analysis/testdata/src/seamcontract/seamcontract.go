// Package seamcontract is the ftlint fixture for the seamcontract
// analyzer: direct admission-mask reads are seeded violations; the
// traversal-byte seam, mask writes, and audited readers must stay silent.
package seamcontract

import "ftcsn/internal/fault"

type router struct {
	vertexOK []bool
	edgeOK   []bool
	visited  []bool
	allowed  []uint8
}

func (r *router) BadVertexRead(v int32) bool {
	return r.vertexOK[v] // want "direct admission-mask read"
}

func (r *router) BadEdgeRead(e int32) bool {
	return r.edgeOK[e] // want "direct admission-mask read"
}

func BadStateRead(st []fault.State, e int32) bool {
	return st[e] == fault.Normal // want "fault.State read"
}

func (r *router) PlainBoolRead(i int32) bool {
	return r.visited[i] // not a mask name: no finding
}

func (r *router) TraversalBytes(slot int32) bool {
	return r.allowed[slot] == 0 // the sanctioned shared seam
}

func (r *router) MaskWrite(v int32) {
	r.vertexOK[v] = false // writes are the maintainers' job: exempt
}

func (r *router) AuditedRead(v int32) bool {
	//ftlint:ignore seamcontract fixture: audited reader, proves suppression is honored
	return r.vertexOK[v]
}
