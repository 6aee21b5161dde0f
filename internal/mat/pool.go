package mat

import "sync"

// Pool recycles scratch buffers for the kernel layer: destination-passing
// callers that need transient matrices or vectors whose peak shape is not
// known up front can Get/Put instead of allocating per call. The
// steady-state hot loops in this repository (the PPO update, layer
// caches, the Stackelberg EvalScratch)
// deliberately do NOT use it — they keep scratch in struct fields, which
// stays allocation-free even when GC pressure empties a sync.Pool, a
// property the AllocsPerRun regression tests depend on — so Pool
// currently has no in-repo callers outside its tests; it is provided for
// future transient-scratch call sites.
//
// The zero value is ready to use and safe for concurrent callers.
type Pool struct {
	mats sync.Pool
	vecs sync.Pool
}

// GetMatrix returns a rows×cols matrix with unspecified contents. Call
// Zero on it if the kernel does not fully overwrite the destination.
func (p *Pool) GetMatrix(rows, cols int) *Matrix {
	if m, ok := p.mats.Get().(*Matrix); ok && m != nil {
		return m.Resize(rows, cols)
	}
	return New(rows, cols)
}

// PutMatrix returns a matrix to the pool. The caller must not use m
// afterwards.
func (p *Pool) PutMatrix(m *Matrix) {
	if m != nil {
		p.mats.Put(m)
	}
}

// GetVec returns a length-n slice with unspecified contents.
func (p *Pool) GetVec(n int) []float64 {
	if v, ok := p.vecs.Get().(*[]float64); ok && v != nil && cap(*v) >= n {
		return (*v)[:n]
	}
	return make([]float64, n)
}

// PutVec returns a slice to the pool. The caller must not use v
// afterwards.
func (p *Pool) PutVec(v []float64) {
	if v == nil {
		return
	}
	p.vecs.Put(&v)
}
