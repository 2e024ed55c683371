package wsn

// Tests for the delivery-speed work: connection pooling on the notify
// path, and the wire compatibility of the Notify envelope with the
// historical single-message format.

import (
	"bytes"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"altstacks/internal/container"
	"altstacks/internal/soap"
	"altstacks/internal/wsa"
	"altstacks/internal/xmlutil"
)

// countingConsumer is a notification endpoint that counts the TCP
// connections opened to it — the instrument for distinguishing pooled
// from per-message delivery. It answers every POST with a well-formed
// NotifyResponse envelope.
func countingConsumer(t *testing.T) (wsa.EPR, *atomic.Int64) {
	t.Helper()
	var conns atomic.Int64
	ack := soap.New(xmlutil.New(NSNT, "NotifyResponse")).Marshal()
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/xml; charset=utf-8")
		w.Write(ack)
	}))
	srv.Config.ConnState = func(c net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return wsa.NewEPR(srv.URL + "/consumer"), &conns
}

// TestDeliveryModeConnections is the pooling acceptance test: N
// notifications to one subscriber ride a single connection in the
// default pooled mode, and open one connection each in the
// paper-faithful per-message mode.
func TestDeliveryModeConnections(t *testing.T) {
	const notifies = 8
	for _, tc := range []struct {
		mode container.DeliveryMode
		want func(int64) bool
		desc string
	}{
		{container.DeliveryPooled, func(n int64) bool { return n == 1 }, "exactly 1"},
		{container.DeliveryPerMessage, func(n int64) bool { return n == notifies }, "one per notify"},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			p, _, client, producer := startProducerDB(t)
			p.Mode = tc.mode
			epr, conns := countingConsumer(t)
			if _, err := Subscribe(client, producer, epr,
				SubscribeOptions{Topic: Concrete("job/exited")}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < notifies; i++ {
				if n, err := p.Notify("job/exited", jobExited(i)); err != nil || n != 1 {
					t.Fatalf("notify %d: n=%d err=%v", i, n, err)
				}
			}
			if got := conns.Load(); !tc.want(got) {
				t.Fatalf("%s mode: %d connections for %d notifies, want %s",
					tc.mode, got, notifies, tc.desc)
			}
		})
	}
}

// TestBatchOfOneWireIdentical is the differential test for the Notify
// envelope: buildNotify must serialize byte-for-byte identically to the
// historical single-message Notify, so the wire format consumers see
// never drifts.
func TestBatchOfOneWireIdentical(t *testing.T) {
	msg := jobExited(7)
	batched := buildNotify("job/exited", msg)
	// The pre-coalescing construction, verbatim.
	legacy := xmlutil.New(NSNT, "Notify").Add(
		xmlutil.New(NSNT, "NotificationMessage").Add(
			xmlutil.NewText(NSNT, "Topic", "job/exited").SetAttr("", "Dialect", DialectConcrete),
			xmlutil.New(NSNT, "Message").Add(msg),
		),
	)
	if !bytes.Equal(batched.Marshal(), legacy.Marshal()) {
		t.Fatalf("batch-of-1 body diverged from single-message body:\n%s\nvs\n%s",
			batched.Marshal(), legacy.Marshal())
	}
	// And through full envelope serialization (the bytes on the wire).
	var a, b bytes.Buffer
	soap.New(batched).MarshalTo(&a)
	soap.New(legacy).MarshalTo(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("batch-of-1 envelope diverged:\n%s\nvs\n%s", a.Bytes(), b.Bytes())
	}
}
