package fleet

import (
	"sync"

	"github.com/maya-defense/maya/internal/telemetry"
)

// Sample is one tenant's per-period reading as spilled to a concurrent
// observer.
type Sample struct {
	Step   int
	Tenant int
	PowerW float64
}

// Spill is the fleet's only concurrent seam: a mutex-guarded buffer the
// engine pushes one Sample per tenant into at every control period, for a
// reader on another goroutine to Drain while the fleet runs. Everything
// else in the engine — the machines and policies, the flight recorders,
// the result accumulators — is single-goroutine by design; the race test
// drives a fleet and a draining reader together under -race to prove that
// state is never shared mutably across that boundary.
//
// The zero value is unbounded: correct when a reader is guaranteed to
// drain (tests, mayactl). A long-running daemon with *optional*
// subscribers must call SetLimit, which turns the buffer into a fixed
// ring with drop-oldest semantics — a reader that never shows up costs a
// bounded amount of memory and a drop counter, not an OOM. While the
// buffer stays within the limit, semantics are identical to the unbounded
// buffer (the race test's exact drained-sample accounting pins that).
type Spill struct {
	mu  sync.Mutex
	buf []Sample

	// Bounded mode (SetLimit): buf is a ring of fixed capacity `limit`
	// holding `n` samples starting at `head`.
	limit   int
	head, n int

	dropped uint64
	dropC   *telemetry.Counter
}

// NewSpill returns a bounded spill retaining at most limit samples
// (drop-oldest beyond that); limit <= 0 means unbounded.
func NewSpill(limit int) *Spill {
	s := &Spill{}
	s.SetLimit(limit)
	return s
}

// SetLimit bounds the buffer to at most limit samples, dropping the
// oldest on overflow; limit <= 0 removes the bound. Call before the run
// starts (it discards any buffered samples).
func (s *Spill) SetLimit(limit int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if limit <= 0 {
		s.limit, s.buf, s.head, s.n = 0, nil, 0, 0
		return
	}
	s.limit = limit
	s.buf = make([]Sample, limit)
	s.head, s.n = 0, 0
}

// SetDropCounter mirrors drops into a telemetry counter (conventionally
// the registry's maya_fleet_spill_dropped_total); nil detaches.
func (s *Spill) SetDropCounter(c *telemetry.Counter) {
	s.mu.Lock()
	s.dropC = c
	s.mu.Unlock()
}

// push appends samples from the engine's goroutine.
func (s *Spill) push(smp Sample) {
	s.mu.Lock()
	if s.limit <= 0 {
		s.buf = append(s.buf, smp)
		s.mu.Unlock()
		return
	}
	if s.n == s.limit {
		// Full: overwrite the oldest sample.
		s.buf[s.head] = smp
		s.head = (s.head + 1) % s.limit
		s.dropped++
		c := s.dropC
		s.mu.Unlock()
		if c != nil {
			c.Inc()
		}
		return
	}
	s.buf[(s.head+s.n)%s.limit] = smp
	s.n++
	s.mu.Unlock()
}

// Drain removes and returns all buffered samples, oldest first.
func (s *Spill) Drain() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.limit <= 0 {
		out := s.buf
		s.buf = nil
		return out
	}
	if s.n == 0 {
		return nil
	}
	out := make([]Sample, s.n)
	for i := range out {
		out[i] = s.buf[(s.head+i)%s.limit]
	}
	s.head, s.n = 0, 0
	return out
}

// Len reports the number of buffered samples.
func (s *Spill) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.limit <= 0 {
		return len(s.buf)
	}
	return s.n
}

// Dropped reports how many samples drop-oldest has discarded in total.
func (s *Spill) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}
