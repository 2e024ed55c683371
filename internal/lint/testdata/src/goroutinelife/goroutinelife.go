// Package goroutinelife exercises ogsalint/goroutinelife: goroutines
// looping forever need an exit path.
package goroutinelife

import (
	"context"
	"time"
)

type worker struct {
	jobs chan int
	quit chan struct{}
}

// --- flagged ---

// badPoller is the leak shape: an anonymous poll loop nothing can
// stop — Shutdown leaves it spinning and the soak harness counts it.
func badPoller(interval time.Duration) {
	go func() { // want `goroutine loops forever with no exit path`
		for {
			time.Sleep(interval)
			poll()
		}
	}()
}

// badDrainForever receives in an infinite loop with no return: when
// the channel closes it spins on zero values instead of exiting.
func badDrainForever(w *worker) {
	go func() { // want `goroutine loops forever with no exit path`
		for {
			j := <-w.jobs
			handle(j)
		}
	}()
}

// runForever is the named-helper variant: the loop hides one call
// behind the go statement.
func (w *worker) runForever() {
	for {
		j := <-w.jobs
		handle(j)
	}
}

func badNamedLoop(w *worker) {
	go w.runForever() // want `goroutine \(\*goroutinelife.worker\).runForever loops forever with no exit path`
}

// --- clean ---

// goodCtxLoop exits through the ctx.Done case — the fault-churn driver's
// discipline.
func goodCtxLoop(ctx context.Context, w *worker) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case j := <-w.jobs:
				handle(j)
			}
		}
	}()
}

// goodQuitChannel exits when Stop closes quit.
func (w *worker) goodQuitChannel() {
	go func() {
		for {
			select {
			case <-w.quit:
				return
			case j := <-w.jobs:
				handle(j)
			}
		}
	}()
}

// goodRangeLoop ends when the channel is closed; range terminates it.
func goodRangeLoop(w *worker) {
	go func() {
		for j := range w.jobs {
			handle(j)
		}
	}()
}

// goodOneShot fires once and exits; nothing loops.
func goodOneShot(w *worker, j int) {
	go func() {
		handle(j)
		w.quit <- struct{}{}
	}()
}

func poll()      {}
func handle(int) {}
