package wssec

import (
	"strings"
	"testing"
	"time"

	"altstacks/internal/soap"
	"altstacks/internal/xmlutil"
)

// freshEnvelope builds an unsigned request body like signedEnvelope's.
func freshEnvelope() *soap.Envelope {
	return soap.New(xmlutil.New("urn:c", "Set").Add(xmlutil.NewText("urn:c", "value", "5")))
}

// reparse simulates wire transit.
func reparse(t *testing.T, env *soap.Envelope) *soap.Envelope {
	t.Helper()
	parsed, err := soap.Parse(env.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	return parsed
}

// TestTrustCacheSteadyStateZeroChainVerifications pins the cache's
// purpose: after the first message from a client, further messages do
// no x509 chain validation work at all.
func TestTrustCacheSteadyStateZeroChainVerifications(t *testing.T) {
	ca, _ := pki(t)
	v := NewVerifier(ca.Pool())
	for i := 0; i < 5; i++ {
		if _, err := v.Verify(reparse(t, signedEnvelope(t))); err != nil {
			t.Fatalf("verify %d: %v", i, err)
		}
	}
	st := v.CacheStats()
	if st.ChainVerifications != 1 {
		t.Fatalf("chain verifications = %d, want 1 (steady state must be cache-hot)", st.ChainVerifications)
	}
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
}

// TestTrustCacheExpiredTimestampStillRejected: freshness is checked
// per message even when the certificate is cache-hot.
func TestTrustCacheExpiredTimestampStillRejected(t *testing.T) {
	ca, _ := pki(t)
	// Keep the cache entry alive under the advanced clock below: the
	// TTL must not be what rejects the message.
	v := newVerifierWithCache(ca.Pool(), time.Hour, DefaultTrustCacheSize)
	// Warm the cache with a fresh message.
	if _, err := v.Verify(reparse(t, signedEnvelope(t))); err != nil {
		t.Fatal(err)
	}
	// A message signed now, judged by a clock far past its Expires.
	stale := reparse(t, signedEnvelope(t))
	v.Now = func() time.Time { return time.Now().Add(MaxMessageAge + 10*time.Minute) }
	_, err := v.Verify(stale)
	if err == nil || !strings.Contains(err.Error(), "expired") {
		t.Fatalf("err = %v, want timestamp expiry", err)
	}
	if n := v.CacheStats().ChainVerifications; n != 1 {
		t.Fatalf("chain verifications = %d, want 1 (rejection must come from freshness, not a cache miss)", n)
	}
}

// TestTrustCacheTamperedBodyStillRejected: digest checks run per
// message even when the certificate is cache-hot.
func TestTrustCacheTamperedBodyStillRejected(t *testing.T) {
	ca, _ := pki(t)
	v := NewVerifier(ca.Pool())
	if _, err := v.Verify(reparse(t, signedEnvelope(t))); err != nil {
		t.Fatal(err)
	}
	tampered := reparse(t, signedEnvelope(t))
	tampered.Body.Child("urn:c", "value").SetText("6000000")
	_, err := v.Verify(tampered)
	if err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("err = %v, want digest mismatch", err)
	}
}

// TestTrustCacheRootPoolChangeInvalidates: revoking trust by swapping
// the root pool must not be masked by cached chain validations.
func TestTrustCacheRootPoolChangeInvalidates(t *testing.T) {
	ca, _ := pki(t)
	v := NewVerifier(ca.Pool())
	if _, err := v.Verify(reparse(t, signedEnvelope(t))); err != nil {
		t.Fatal(err)
	}
	if n := v.CacheStats().ChainVerifications; n != 1 {
		t.Fatalf("chain verifications = %d, want 1", n)
	}
	// The CA is no longer trusted: only mallory's roots remain.
	v.Roots = mallory.Pool()
	_, err := v.Verify(reparse(t, signedEnvelope(t)))
	if err == nil || !strings.Contains(err.Error(), "untrusted certificate") {
		t.Fatalf("err = %v, want untrusted certificate", err)
	}
	if st := v.CacheStats(); st.ChainVerifications != 2 {
		t.Fatalf("chain verifications = %d, want 2 (pool swap must force re-validation)", st.ChainVerifications)
	}
	// Restoring the original pool must also re-validate, not resurrect
	// entries cached against it earlier.
	v.Roots = ca.Pool()
	if _, err := v.Verify(reparse(t, signedEnvelope(t))); err != nil {
		t.Fatal(err)
	}
	if st := v.CacheStats(); st.ChainVerifications != 3 {
		t.Fatalf("chain verifications = %d, want 3", st.ChainVerifications)
	}
}

// TestTrustCacheTTLExpiry: entries stop serving after the cache TTL.
func TestTrustCacheTTLExpiry(t *testing.T) {
	ca, _ := pki(t)
	v := newVerifierWithCache(ca.Pool(), time.Minute, DefaultTrustCacheSize)
	base := time.Now()
	v.Now = func() time.Time { return base }
	if _, err := v.Verify(reparse(t, signedEnvelope(t))); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Verify(reparse(t, signedEnvelope(t))); err != nil {
		t.Fatal(err)
	}
	if n := v.CacheStats().ChainVerifications; n != 1 {
		t.Fatalf("chain verifications = %d, want 1 inside TTL", n)
	}
	// Advance past the TTL (still inside message freshness skew).
	base = base.Add(2 * time.Minute)
	if _, err := v.Verify(reparse(t, signedEnvelope(t))); err != nil {
		t.Fatal(err)
	}
	if n := v.CacheStats().ChainVerifications; n != 2 {
		t.Fatalf("chain verifications = %d, want 2 after TTL expiry", n)
	}
}

// TestTrustCacheEntryCap: the cache never exceeds its size cap in distinct
// certificates.
func TestTrustCacheEntryCap(t *testing.T) {
	ca, _ := pki(t)
	v := newVerifierWithCache(ca.Pool(), DefaultTrustTTL, 2)
	for _, cn := range []string{"CN=u1", "CN=u2", "CN=u3"} {
		id, err := ca.Issue(cn)
		if err != nil {
			t.Fatal(err)
		}
		env := freshEnvelope()
		if err := NewSigner(id).Sign(env); err != nil {
			t.Fatal(err)
		}
		if _, err := v.Verify(reparse(t, env)); err != nil {
			t.Fatal(err)
		}
	}
	if st := v.CacheStats(); st.Entries > 2 {
		t.Fatalf("entries = %d, want <= 2", st.Entries)
	}
}

// TestTrustCacheUntrustedSignerNeverCached: eve (signed by mallory) is
// rejected every time and never lands in the trust cache.
func TestTrustCacheUntrustedSignerNeverCached(t *testing.T) {
	ca, _ := pki(t)
	v := NewVerifier(ca.Pool())
	env := freshEnvelope()
	if err := NewSigner(eve).Sign(env); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := v.Verify(reparse(t, env)); err == nil {
			t.Fatal("untrusted signer accepted")
		}
	}
	st := v.CacheStats()
	if st.Entries != 0 {
		t.Fatalf("entries = %d, want 0 (failures must not be cached as trust)", st.Entries)
	}
	if st.ChainVerifications != 2 {
		t.Fatalf("chain verifications = %d, want 2", st.ChainVerifications)
	}
}
