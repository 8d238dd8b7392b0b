// Package fixture exercises lockheld: blocking and log calls under Lock, select exemptions, locks by value.
package fixture

import (
	"context"
	"log/slog"
	"sync"
	"time"
)
type store struct {
	mu      sync.Mutex
	rw      sync.RWMutex
	results chan int
	data    map[string]int
}

// sleepHeld sleeps with the mutex held: flagged.
func (s *store) sleepHeld() {
	s.mu.Lock()
	time.Sleep(time.Millisecond)
	s.mu.Unlock()
}

// sendHeld sends on a channel while the deferred unlock keeps the mutex
// held to return: flagged.
func (s *store) sendHeld(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.results <- v
}

// recvHeld receives under the read lock: flagged.
func (s *store) recvHeld() int {
	s.rw.RLock()
	v := <-s.results
	s.rw.RUnlock()
	return v
}

// nonblockingSend uses select-with-default, which cannot block: clean.
func (s *store) nonblockingSend(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.results <- v:
	default:
	}
}

// releasedFirst unlocks before the send: clean.
func (s *store) releasedFirst(v int) {
	s.mu.Lock()
	s.data["k"] = v
	s.mu.Unlock()
	s.results <- v
}

// relock takes the same mutex twice: flagged as a self-deadlock.
func (s *store) relock() {
	s.mu.Lock()
	s.mu.Lock()
	s.mu.Unlock()
	s.mu.Unlock()
}

// branchHeld blocks on only one path; any path counts: flagged.
func (s *store) branchHeld(v int, urgent bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if urgent {
		s.results <- v
	}
	s.data["k"] = v
}

// rangeHeld drains a channel with the mutex held: flagged.
func (s *store) rangeHeld() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for v := range s.results {
		s.data["v"] = v
	}
}

// litClean sends from a new goroutine, not under the caller's lock:
// clean.
func (s *store) litClean(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() { s.results <- v }()
}

// waitHeld waits on a WaitGroup with the mutex held: flagged.
func (s *store) waitHeld(wg *sync.WaitGroup) {
	s.mu.Lock()
	wg.Wait()
	s.mu.Unlock()
}

// lockedConfig carries a mutex by value wherever it is copied.
type lockedConfig struct {
	mu sync.Mutex
	n  int
}

// byValue copies the mutex through its receiver: flagged.
func (c lockedConfig) byValue() int { return c.n }

// byPtr shares the mutex: clean.
func (c *lockedConfig) byPtr() int { return c.n }

// takesByValue copies the mutex through a parameter: flagged.
func takesByValue(c lockedConfig) int { return c.n }

// lockedLog logs while holding the mutex: flagged.
func (s *store) lockedLog(log *slog.Logger) {
	s.mu.Lock()
	s.data["state"]++
	log.Info("state bumped", "state", s.data["state"]) // flagged: slog under s.mu
	s.mu.Unlock()
}

// unlockedLog releases first: clean.
func (s *store) unlockedLog(log *slog.Logger) {
	s.mu.Lock()
	s.data["state"]++
	v := s.data["state"]
	s.mu.Unlock()
	log.Info("state bumped", "state", v)
}

// justifiedLog documents an in-memory handler: suppressed.
func (s *store) justifiedLog(log *slog.Logger) {
	s.mu.Lock()
	log.Info("buffered", "state", s.data["state"]) //lint:ignore lockheld handler writes to an in-memory ring, no I/O under the lock
	s.mu.Unlock()
}

// attrsHeld logs through LogAttrs while the deferred RUnlock keeps the
// read lock held: flagged.
func (s *store) attrsHeld(ctx context.Context, log *slog.Logger) {
	s.rw.RLock()
	defer s.rw.RUnlock()
	log.LogAttrs(ctx, slog.LevelInfo, "snapshot", slog.Int("entries", len(s.data)))
}

// sleepThenLog suppresses its sleep, which must not hide the log call
// after it: the log call is flagged.
func (s *store) sleepThenLog(log *slog.Logger) {
	s.mu.Lock()
	time.Sleep(time.Millisecond) //lint:ignore lockheld a one-millisecond backoff is bounded
	s.data["retries"]++
	log.Warn("retrying", "retries", s.data["retries"])
	s.mu.Unlock()
}

// sleepThenSends suppresses its sleep, which must not hide the sends
// after it: both sends are flagged.
func (s *store) sleepThenSends(v int) {
	s.mu.Lock()
	time.Sleep(time.Millisecond) //lint:ignore lockheld a one-millisecond backoff is bounded
	s.results <- v
	s.results <- v + 1
	s.mu.Unlock()
}

// lockOnEitherBranch takes the same mutex on both branches of an if, so
// two acquisition sites reach one send: it is flagged once.
func (s *store) lockOnEitherBranch(fast bool, v int) {
	if fast {
		s.mu.Lock()
	} else {
		s.mu.Lock()
	}
	s.results <- v
	s.mu.Unlock()
}
