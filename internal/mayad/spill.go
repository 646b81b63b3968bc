package mayad

import (
	"sync"

	"github.com/maya-defense/maya/internal/telemetry"
)

// SpillSample is one tenant's control-period reading as spilled to a
// /spill reader.
type SpillSample struct {
	Shard  int     `json:"shard"`
	Tenant int     `json:"tenant"`
	Step   int     `json:"step"`
	PowerW float64 `json:"power_w"`
}

// spill is a shard's streaming observation tap: a fixed ring the shard
// goroutine pushes one SpillSample per tenant per control period into, for
// HTTP readers to drain while the fleet runs. It is the daemon's only
// concurrent seam into running tenants: the engines themselves are
// shard-goroutine-only. A reader that never shows up costs the ring's
// fixed memory and a drop counter: once the ring is full, each push
// overwrites the oldest sample. While readers keep up nothing is lost and
// samples drain in push order.
type spill struct {
	mu sync.Mutex
	// buf is a ring of fixed capacity holding n samples starting at head.
	buf     []SpillSample
	head, n int
	dropped *telemetry.Counter
}

// newSpill returns a ring retaining at most limit (> 0) samples; drops are
// counted in dropped.
func newSpill(limit int, dropped *telemetry.Counter) *spill {
	return &spill{buf: make([]SpillSample, limit), dropped: dropped}
}

// push appends one sample, overwriting the oldest when the ring is full.
func (s *spill) push(smp SpillSample) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == len(s.buf) {
		s.buf[s.head] = smp
		s.head = (s.head + 1) % len(s.buf)
		s.dropped.Inc()
		return
	}
	s.buf[(s.head+s.n)%len(s.buf)] = smp
	s.n++
}

// drain removes and returns every buffered sample, oldest first.
func (s *spill) drain() []SpillSample {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SpillSample, s.n)
	for i := range out {
		out[i] = s.buf[(s.head+i)%len(s.buf)]
	}
	s.head, s.n = 0, 0
	return out
}
