package wse

// Tests for the delivery-speed work on the eventing stack: bounded TCP
// dials and connection-cache eviction.

import (
	"context"
	"testing"
	"time"

	"altstacks/internal/soap"
	"altstacks/internal/wsa"
)

// TestTCPDialHonorsContext checks a stalled delivery context cannot
// leak into an unbounded connect: a dial under an already-expired
// context fails immediately — even against a live, accepting sink —
// because DialContext consults the context before touching the wire.
// (A black-hole address would test the same property less reliably:
// what is unroutable varies with the host's network.)
func TestTCPDialHonorsContext(t *testing.T) {
	sink, err := NewTCPSink(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sink.Close)
	d := NewTCPDeliverer()
	defer d.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	env := soap.New(jobDone("0"))
	start := time.Now()
	err = d.DeliverContext(ctx, sink.Addr(), env, 0)
	if err == nil {
		t.Fatal("dial under a cancelled context succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled dial took %v; context not honored", elapsed)
	}
	// The same delivery with a live context must succeed — the failure
	// above was the context, not the sink.
	if err := d.DeliverContext(context.Background(), sink.Addr(), env, time.Second); err != nil {
		t.Fatalf("delivery with live context: %v", err)
	}
}

// TestTCPChannelEvictedWithSubscription pins the connection-cache
// lifecycle: the deliverer caches one channel per live TCP
// subscription, and unsubscribing releases it — the conns map must not
// grow monotonically with sink churn.
func TestTCPChannelEvictedWithSubscription(t *testing.T) {
	src, client, source := startSource(t, "")
	sink, err := NewTCPSink(16)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sink.Close)

	res, err := Subscribe(client, source, SubscribeOptions{
		NotifyTo: wsa.NewEPR(sink.Addr()),
		Mode:     DeliveryModeTCP,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := src.Publish("jobs/1/done", jobDone("0")); err != nil || n != 1 {
		t.Fatalf("publish: n=%d err=%v", n, err)
	}
	recvEvent(t, sink.Ch)
	if got := src.TCP.ConnCount(); got != 1 {
		t.Fatalf("cached channels after publish = %d, want 1", got)
	}
	if err := Unsubscribe(client, res.Manager); err != nil {
		t.Fatal(err)
	}
	if got := src.TCP.ConnCount(); got != 0 {
		t.Fatalf("cached channels after unsubscribe = %d, want 0", got)
	}
}

// TestTCPChannelEvictedOnSweep checks expiry-driven cleanup releases
// the cached channel too.
func TestTCPChannelEvictedOnSweep(t *testing.T) {
	src, client, source := startSource(t, "")
	sink, err := NewTCPSink(16)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sink.Close)

	if _, err := Subscribe(client, source, SubscribeOptions{
		NotifyTo: wsa.NewEPR(sink.Addr()),
		Mode:     DeliveryModeTCP,
		Expires:  time.Now().Add(200 * time.Millisecond),
	}); err != nil {
		t.Fatal(err)
	}
	if n, err := src.Publish("jobs/1/done", jobDone("0")); err != nil || n != 1 {
		t.Fatalf("publish: n=%d err=%v", n, err)
	}
	recvEvent(t, sink.Ch)
	src.Now = func() time.Time { return time.Now().Add(time.Minute) }
	if n := src.SweepExpired(); n != 1 {
		t.Fatalf("swept %d subscriptions, want 1", n)
	}
	if got := src.TCP.ConnCount(); got != 0 {
		t.Fatalf("cached channels after sweep = %d, want 0", got)
	}
}
