// Package lcgood follows the snapshot-under-lock, notify-after
// discipline the analyzer enforces.
package lcgood

import (
	"sync"
	"time"

	"github.com/tanklab/infless/internal/runtime"
	"github.com/tanklab/infless/internal/telemetry"
)

type state struct {
	mu  sync.Mutex
	col *telemetry.Collector
	obs runtime.Observers
}

// register releases the lock before touching the collector.
func (s *state) register(name string, slo time.Duration) {
	s.mu.Lock()
	col := s.col
	s.mu.Unlock()
	col.Register(name, slo)
}

// spawn returns a closure: its body runs later, when the enclosing lock
// is no longer held, so it is swept as a separate scope.
func (s *state) spawn(name string, now time.Duration) func() {
	s.mu.Lock()
	defer s.mu.Unlock()
	return func() { s.obs.RequestDropped(name, now) }
}

// unexported Collector internals (non-entry-point methods) do not
// exist from outside the package, so plain struct reads under the lock
// are all this corpus can — and should — do.
func (s *state) read() runtime.Observers {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.obs
}

// announce is a same-package helper that notifies.
func (s *state) announce(name string, now time.Duration) {
	s.obs.RequestDropped(name, now)
}

// settle releases the lock on every path before notifying, directly or
// through the helper.
func (s *state) settle(name string, now time.Duration, fail bool) {
	s.mu.Lock()
	if fail {
		s.mu.Unlock()
		s.obs.RequestDropped(name, now)
		return
	}
	s.mu.Unlock()
	s.announce(name, now)
}
