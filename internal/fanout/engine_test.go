package fanout

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"altstacks/internal/xmlutil"
)

var testMetrics = NewMetrics("enginetest", false)

type fakeSub struct {
	id       string
	fail     atomic.Bool
	matchErr bool
}

// fakeSeam is an in-memory stack: Send fails for subscriptions marked
// fail, and Evict removes a subscription from the live set.
type fakeSeam struct {
	mu      sync.Mutex
	subs    []*fakeSub
	saved   map[string]Health
	saves   int
	removed atomic.Int64
	sends   atomic.Int64
}

func (f *fakeSeam) Subscriptions() ([]*fakeSub, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*fakeSub(nil), f.subs...), nil
}

func (*fakeSeam) ID(sub *fakeSub) string { return sub.id }

func (*fakeSeam) Match(sub *fakeSub, _ string, _ *xmlutil.Element, _ time.Time) (bool, error) {
	if sub.matchErr {
		return false, errors.New("bad filter")
	}
	return true, nil
}

func (*fakeSeam) Prepare(topic string, _ *xmlutil.Element) string { return topic }

func (f *fakeSeam) Send(_ context.Context, sub *fakeSub, _ string) error {
	f.sends.Add(1)
	if sub.fail.Load() {
		return errors.New("consumer down")
	}
	return nil
}

func (f *fakeSeam) Evict(sub *fakeSub, _ error) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, s := range f.subs {
		if s == sub {
			f.subs = append(f.subs[:i], f.subs[i+1:]...)
			f.removed.Add(1)
			return true
		}
	}
	return false
}

func (f *fakeSeam) LoadHealth(id string) Health {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.saved[id]
}

func (f *fakeSeam) SaveHealth(id string, h Health) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.saved[id] = h
	f.saves++
	return nil
}

func newTestEngine(subs ...*fakeSub) (*Engine[*fakeSub, string], *fakeSeam, *Policy) {
	seam := &fakeSeam{subs: subs, saved: map[string]Health{}}
	policy := &Policy{Workers: 4, Retry: DefaultPolicy().Retry, EvictAfter: DefaultEvictAfter}
	policy.Retry.BaseBackoff, policy.Retry.MaxBackoff = time.Microsecond, time.Microsecond
	return NewEngine[*fakeSub, string](testMetrics, "enginetest.publish", policy, time.Now, seam), seam, policy
}

// TestEngineEvictsExactlyOnce races publishers against one dead
// subscription: every publish still reaches the healthy one, and the
// dead one is evicted — and counted — exactly once.
func TestEngineEvictsExactlyOnce(t *testing.T) {
	dead := &fakeSub{id: "dead"}
	dead.fail.Store(true)
	live := &fakeSub{id: "live"}
	e, seam, _ := newTestEngine(dead, live)

	const publishers, rounds = 8, 5
	var delivered atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				n, _ := e.Publish(context.Background(), "t", nil)
				delivered.Add(int64(n))
			}
		}()
	}
	wg.Wait()

	st := e.Stats()
	if st.Evictions != 1 || seam.removed.Load() != 1 {
		t.Fatalf("evictions = %d (seam removals %d), want exactly 1", st.Evictions, seam.removed.Load())
	}
	if got := delivered.Load(); got != publishers*rounds || st.Deliveries != got {
		t.Fatalf("delivered %d (stats %d), want %d", got, st.Deliveries, publishers*rounds)
	}
	if st.Failures < DefaultEvictAfter {
		t.Fatalf("failures = %d, want at least EvictAfter", st.Failures)
	}
	if st.Attempts != seam.sends.Load() || st.Retries != st.Failures*(DefaultMaxAttempts-1) {
		t.Fatalf("attempt accounting %+v against %d sends", st, seam.sends.Load())
	}
	if e.MessagesSent() != st.Deliveries+st.Failures {
		t.Fatalf("messages sent = %d, want one per delivery (%d)", e.MessagesSent(), st.Deliveries+st.Failures)
	}
}

// TestEngineHealthTransitions pins the ledger: a fault persists, a
// recovery persists once, steady success writes nothing, and a filter
// error is a counted fault.
func TestEngineHealthTransitions(t *testing.T) {
	sub := &fakeSub{id: "s"}
	e, seam, policy := newTestEngine(sub)
	policy.Retry.MaxAttempts = 1
	clock := time.Unix(1000, 0)
	e.now = func() time.Time { return clock }

	sub.fail.Store(true)
	if n, err := e.Publish(context.Background(), "t", nil); n != 0 || err == nil {
		t.Fatalf("failing publish = %d, %v", n, err)
	}
	if h := e.Health("s"); h.ConsecutiveFailures != 1 || h.LastError == "" || !h.LastFailure.Equal(clock) {
		t.Fatalf("after fault: %+v", h)
	}
	sub.fail.Store(false)
	clock = clock.Add(time.Second)
	for i := 0; i < 3; i++ {
		if n, err := e.Publish(context.Background(), "t", nil); n != 1 || err != nil {
			t.Fatalf("healthy publish = %d, %v", n, err)
		}
	}
	if h := e.Health("s"); h.ConsecutiveFailures != 0 || h.LastError != "" || !h.LastSuccess.Equal(clock) {
		t.Fatalf("after recovery: %+v", h)
	}
	if seam.saves != 2 {
		t.Fatalf("health saves = %d, want 2 (the fault and the recovery)", seam.saves)
	}

	sub.matchErr = true
	if n, err := e.Publish(context.Background(), "t", nil); n != 0 || err != nil {
		t.Fatalf("filter-error publish = %d, %v", n, err)
	}
	if st := e.Stats(); st.FilterErrors != 1 || e.Health("s").ConsecutiveFailures != 1 {
		t.Fatalf("filter error not counted as a fault: %+v, %+v", st, e.Health("s"))
	}
	e.DropHealth("s")
	if h := e.Health("s"); h != seam.saved["s"] {
		t.Fatalf("dropped ledger should fall back to the persisted record: %+v", h)
	}
}
