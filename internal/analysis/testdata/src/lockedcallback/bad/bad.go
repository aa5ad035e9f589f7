// Package lcbad invokes observer and telemetry entry points while
// holding a mutex, in both the explicit-unlock and deferred-unlock
// shapes.
package lcbad

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

// register calls a Collector entry point between Lock and Unlock.
func (s *state) register(name string, slo time.Duration) {
	s.mu.Lock()
	s.col.Register(name, slo) // want "telemetry\.Collector\.Register invoked while s\.mu is held"
	s.mu.Unlock()
}

// notify holds the lock to the end of the function via defer.
func (s *state) notify(name string, now time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs.RequestArrived(name, now) // want "runtime\.Observers\.RequestArrived invoked while s\.mu is held"
}

// single fires one observer directly through the interface.
func (s *state) single(o runtime.Observer, name string, now time.Duration) {
	s.mu.Lock()
	o.RequestDropped(name, now) // want "runtime\.Observer\.RequestDropped invoked while s\.mu is held"
	s.mu.Unlock()
}

// release drops the lock on the failure branch only: on the success
// path the notification still runs under s.mu.
func (s *state) release(name string, now time.Duration, fail bool) {
	s.mu.Lock()
	if fail {
		s.mu.Unlock()
		return
	}
	s.obs.RequestArrived(name, now) // want "runtime\.Observers\.RequestArrived invoked while s\.mu is held"
	s.mu.Unlock()
}

// announce is a same-package helper that notifies.
func (s *state) announce(name string, now time.Duration) {
	s.obs.RequestDropped(name, now)
}

// viaHelper notifies through announce while holding the lock.
func (s *state) viaHelper(name string, now time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.announce(name, now) // want "runtime\.Observers\.RequestDropped invoked via call to \(\*lcbad\.state\)\.announce while s\.mu is held"
}
