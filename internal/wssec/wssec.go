// Package wssec implements the WS-Security message protection used in
// the paper's X.509 experiments: an X.509 BinarySecurityToken plus an
// XML digital signature over the SOAP body and a freshness timestamp.
//
// In the paper this processing was supplied by Microsoft's Web
// Services Enhancements (WSE) inside the container's Security/Policy
// Handler (Figure 1). The performance claim being reproduced is that
// X.509 signing dominates end-to-end latency (Figure 4) — "the
// overhead of the security processing is so large that the performance
// differences between the two underlying systems tend to fade in
// significance" — so the implementation performs real RSA-SHA256
// signing and full chain verification per message.
//
// Canonicalization uses xmlutil's deterministic canonical form in
// place of W3C C14N; signer and verifier share it, which is the
// property signatures require.
package wssec

import (
	"bytes"
	"crypto"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"encoding/base64"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"altstacks/internal/certs"
	"altstacks/internal/obs"
	"altstacks/internal/soap"
	"altstacks/internal/xmlutil"
)

// Namespaces of the OASIS WSS 1.0 specification set.
const (
	NSWSE = "http://docs.oasis-open.org/wss/2004/01/oasis-200401-wss-wssecurity-secext-1.0.xsd"
	NSWSU = "http://docs.oasis-open.org/wss/2004/01/oasis-200401-wss-wssecurity-utility-1.0.xsd"
	NSDS  = "http://www.w3.org/2000/09/xmldsig#"
)

// Algorithm identifiers recorded in the signature for interoperability.
const (
	algCanonical = "urn:altstacks:canonical-xml"
	algSignature = "http://www.w3.org/2001/04/xmldsig-more#rsa-sha256"
	algDigest    = "http://www.w3.org/2001/04/xmlenc#sha256"
	tokenProfile = "http://docs.oasis-open.org/wss/2004/01/oasis-200401-wss-x509-token-profile-1.0#X509v3"
)

// MaxMessageAge bounds how stale a signed message's wsu:Timestamp may
// be before verification rejects it (replay mitigation).
const MaxMessageAge = 5 * time.Minute

// Signer signs outgoing envelopes with an X.509 identity.
type Signer struct {
	ID *certs.Identity

	// tokenOnce caches the base64 BinarySecurityToken text: the
	// certificate never changes for the life of the Signer, so the
	// ~2.4 KB encode is paid once, not per message.
	tokenOnce sync.Once
	token     string
}

// NewSigner returns a Signer for the identity.
func NewSigner(id *certs.Identity) *Signer { return &Signer{ID: id} }

func (s *Signer) securityToken() string {
	s.tokenOnce.Do(func() {
		s.token = base64.StdEncoding.EncodeToString(s.ID.CertDER)
	})
	return s.token
}

// Sign attaches a wsse:Security header to the envelope containing a
// timestamp, the signer's certificate as a BinarySecurityToken, and an
// RSA-SHA256 signature covering the body and the timestamp.
func (s *Signer) Sign(env *soap.Envelope) error {
	if env.Body == nil && env.Fault == nil {
		return fmt.Errorf("wssec: refusing to sign an empty envelope")
	}
	now := time.Now().UTC()
	ts := xmlutil.New(NSWSU, "Timestamp").Add(
		xmlutil.NewText(NSWSU, "Created", now.Format(time.RFC3339Nano)),
		xmlutil.NewText(NSWSU, "Expires", now.Add(MaxMessageAge).Format(time.RFC3339Nano)),
	)
	bodyDigest := digestOf(bodyElement(env))
	tsDigest := digestOf(ts)

	signedInfo := xmlutil.New(NSDS, "SignedInfo").Add(
		xmlutil.New(NSDS, "CanonicalizationMethod").SetAttr("", "Algorithm", algCanonical),
		xmlutil.New(NSDS, "SignatureMethod").SetAttr("", "Algorithm", algSignature),
		reference("#Body", bodyDigest),
		reference("#Timestamp", tsDigest),
	)
	sig, err := s.signElement(signedInfo)
	if err != nil {
		return err
	}
	security := xmlutil.New(NSWSE, "Security").
		SetAttr(soap.NS, "mustUnderstand", "1").
		Add(
			ts,
			xmlutil.NewText(NSWSE, "BinarySecurityToken", s.securityToken()).
				SetAttr("", "ValueType", tokenProfile),
			xmlutil.New(NSDS, "Signature").Add(
				signedInfo,
				xmlutil.NewText(NSDS, "SignatureValue", base64.StdEncoding.EncodeToString(sig)),
			),
		)
	env.Headers = append(env.Headers, security)
	return nil
}

func (s *Signer) signElement(el *xmlutil.Element) ([]byte, error) {
	h := el.CanonicalSum256()
	sig, err := rsa.SignPKCS1v15(rand.Reader, s.ID.Key, crypto.SHA256, h[:])
	if err != nil {
		return nil, fmt.Errorf("wssec: sign: %w", err)
	}
	return sig, nil
}

func reference(uri string, digest [sha256.Size]byte) *xmlutil.Element {
	return xmlutil.New(NSDS, "Reference").SetAttr("", "URI", uri).Add(
		xmlutil.New(NSDS, "DigestMethod").SetAttr("", "Algorithm", algDigest),
		xmlutil.NewText(NSDS, "DigestValue", base64.StdEncoding.EncodeToString(digest[:])),
	)
}

// digestOf hashes the canonical form directly, never materializing it.
func digestOf(el *xmlutil.Element) [sha256.Size]byte {
	return el.CanonicalSum256()
}

// bodyElement returns the element the "#Body" reference covers: the
// body child, or the fault rendered as an element.
func bodyElement(env *soap.Envelope) *xmlutil.Element {
	if env.Body != nil {
		return env.Body
	}
	// Sign the serialized fault representation.
	return env.Element().Child(soap.NS, "Body")
}

// Trust-cache bounds every NewVerifier gets: how long one chain
// validation is trusted, and how many distinct certificates are cached.
const (
	DefaultTrustTTL       = 5 * time.Minute
	DefaultTrustCacheSize = 1024
)

// trustEntry is one memoized chain validation: the parsed certificate
// and how long the derived trust may be reused.
type trustEntry struct {
	cert    *x509.Certificate
	expires time.Time
}

// Verifier checks WS-Security headers on incoming envelopes.
//
// Certificate parsing and chain validation are memoized in a bounded
// trust cache keyed by the SHA-256 of the token DER: the same client
// certificate arrives on every message of a session, and re-deriving
// its trust chain per message is pure overhead. The per-message
// RSA signature check, timestamp freshness, and reference digests are
// NEVER cached — they are the paper's measured security cost and they
// differ per message. Replacing Roots invalidates the cache; entries
// also expire after DefaultTrustTTL and never outlive the certificate.
// Build Verifiers with NewVerifier, which sets the cache bounds.
type Verifier struct {
	Roots *x509.CertPool
	// Now allows tests to pin the clock; nil means time.Now.
	Now func() time.Time

	cacheTTL  time.Duration
	cacheSize int // the cache evicts arbitrarily beyond it

	mu         sync.Mutex
	trust      map[[sha256.Size]byte]trustEntry
	trustRoots *x509.CertPool // pool the cached entries were verified against

	chainVerifications atomic.Int64
}

// Registry mirrors of the trust-cache counters, aggregated across
// every Verifier instance; CacheStats stays the per-instance view.
var (
	chainVerificationsTotal = obs.NewCounter("ogsa_wssec_chain_verifications_total", "",
		"full X.509 chain verifications performed (trust-cache misses)")
	trustCacheHitsTotal = obs.NewCounter("ogsa_wssec_trust_cache_hits_total", "",
		"token verifications served from the trust cache")
)

// NewVerifier returns a Verifier trusting the given roots.
func NewVerifier(roots *x509.CertPool) *Verifier {
	return newVerifierWithCache(roots, DefaultTrustTTL, DefaultTrustCacheSize)
}

// newVerifierWithCache is the test seam for exercising trust-cache
// expiry and eviction without waiting minutes or minting thousands of
// certificates.
func newVerifierWithCache(roots *x509.CertPool, ttl time.Duration, size int) *Verifier {
	return &Verifier{Roots: roots, cacheTTL: ttl, cacheSize: size}
}

// TrustCacheStats reports cache effectiveness for tests and metrics.
type TrustCacheStats struct {
	// ChainVerifications counts full x509 chain validations performed
	// (cache misses); steady-state traffic from known clients should
	// not increase it.
	ChainVerifications int64
	// Entries is the current number of cached certificates.
	Entries int
}

// CacheStats returns a snapshot of trust-cache counters.
func (v *Verifier) CacheStats() TrustCacheStats {
	v.mu.Lock()
	defer v.mu.Unlock()
	return TrustCacheStats{
		ChainVerifications: v.chainVerifications.Load(),
		Entries:            len(v.trust),
	}
}

func (v *Verifier) now() time.Time {
	if v.Now != nil {
		return v.Now()
	}
	return time.Now()
}

// trustedCert resolves the BinarySecurityToken DER to a
// chain-validated certificate, consulting the trust cache first.
func (v *Verifier) trustedCert(der []byte) (*x509.Certificate, error) {
	key := sha256.Sum256(der)
	now := v.now()
	v.mu.Lock()
	// A swapped root pool (rotation, revocation) orphans every cached
	// trust derivation.
	if v.trustRoots != v.Roots {
		v.trust = nil
		v.trustRoots = v.Roots
	}
	if e, ok := v.trust[key]; ok && now.Before(e.expires) {
		v.mu.Unlock()
		trustCacheHitsTotal.Inc()
		return e.cert, nil
	}
	v.mu.Unlock()

	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("wssec: token parse: %w", err)
	}
	v.chainVerifications.Add(1)
	chainVerificationsTotal.Inc()
	if _, err := cert.Verify(x509.VerifyOptions{
		Roots:     v.Roots,
		KeyUsages: []x509.ExtKeyUsage{x509.ExtKeyUsageAny},
	}); err != nil {
		return nil, fmt.Errorf("wssec: untrusted certificate: %w", err)
	}
	expires := now.Add(v.cacheTTL)
	// Trust must not outlive the certificate itself.
	if cert.NotAfter.Before(expires) {
		expires = cert.NotAfter
	}
	v.mu.Lock()
	if v.trustRoots == v.Roots {
		if v.trust == nil {
			v.trust = make(map[[sha256.Size]byte]trustEntry)
		}
		// Arbitrary eviction: the cache holds one entry per client
		// certificate, so churn here means more distinct clients than
		// capacity, not a hot/cold working set worth LRU bookkeeping.
		for k := range v.trust {
			if len(v.trust) < v.cacheSize {
				break
			}
			delete(v.trust, k)
		}
		v.trust[key] = trustEntry{cert: cert, expires: expires}
	}
	v.mu.Unlock()
	return cert, nil
}

// Verify validates the envelope's wsse:Security header: certificate
// chain, timestamp freshness, body and timestamp digests, and the
// signature over SignedInfo. It returns the signer's certificate so
// callers can authorize by subject DN.
func (v *Verifier) Verify(env *soap.Envelope) (*x509.Certificate, error) {
	sec := env.Header(NSWSE, "Security")
	if sec == nil {
		return nil, fmt.Errorf("wssec: no Security header")
	}
	bstEl := sec.Child(NSWSE, "BinarySecurityToken")
	if bstEl == nil {
		return nil, fmt.Errorf("wssec: no BinarySecurityToken")
	}
	der, err := base64.StdEncoding.DecodeString(bstEl.TrimText())
	if err != nil {
		return nil, fmt.Errorf("wssec: token decode: %w", err)
	}
	cert, err := v.trustedCert(der)
	if err != nil {
		return nil, err
	}

	ts := sec.Child(NSWSU, "Timestamp")
	if ts == nil {
		return nil, fmt.Errorf("wssec: no Timestamp")
	}
	if err := v.checkFreshness(ts); err != nil {
		return nil, err
	}

	sigEl := sec.Child(NSDS, "Signature")
	if sigEl == nil {
		return nil, fmt.Errorf("wssec: no Signature")
	}
	signedInfo := sigEl.Child(NSDS, "SignedInfo")
	if signedInfo == nil {
		return nil, fmt.Errorf("wssec: no SignedInfo")
	}
	sigVal, err := base64.StdEncoding.DecodeString(sigEl.ChildText(NSDS, "SignatureValue"))
	if err != nil {
		return nil, fmt.Errorf("wssec: signature decode: %w", err)
	}
	pub, ok := cert.PublicKey.(*rsa.PublicKey)
	if !ok {
		return nil, fmt.Errorf("wssec: certificate key is %T, want RSA", cert.PublicKey)
	}
	h := signedInfo.CanonicalSum256()
	if err := rsa.VerifyPKCS1v15(pub, crypto.SHA256, h[:], sigVal); err != nil {
		return nil, fmt.Errorf("wssec: signature invalid: %w", err)
	}

	// Check every reference digest against the live message parts.
	for _, ref := range signedInfo.ChildrenNamed(NSDS, "Reference") {
		uri := ref.AttrValue("", "URI")
		want, err := base64.StdEncoding.DecodeString(ref.ChildText(NSDS, "DigestValue"))
		if err != nil {
			return nil, fmt.Errorf("wssec: digest decode for %s: %w", uri, err)
		}
		var got [sha256.Size]byte
		switch uri {
		case "#Body":
			got = digestOf(bodyElement(env))
		case "#Timestamp":
			got = digestOf(ts)
		default:
			return nil, fmt.Errorf("wssec: unknown reference %q", uri)
		}
		if !bytes.Equal(got[:], want) {
			return nil, fmt.Errorf("wssec: digest mismatch for %s (message altered)", uri)
		}
	}
	return cert, nil
}

func (v *Verifier) checkFreshness(ts *xmlutil.Element) error {
	now := v.now()
	created, err := time.Parse(time.RFC3339Nano, ts.ChildText(NSWSU, "Created"))
	if err != nil {
		return fmt.Errorf("wssec: bad Created: %w", err)
	}
	expires, err := time.Parse(time.RFC3339Nano, ts.ChildText(NSWSU, "Expires"))
	if err != nil {
		return fmt.Errorf("wssec: bad Expires: %w", err)
	}
	const skew = 30 * time.Second
	if now.Add(skew).Before(created) {
		return fmt.Errorf("wssec: message from the future (created %s)", created)
	}
	if now.After(expires.Add(skew)) {
		return fmt.Errorf("wssec: message expired at %s", expires)
	}
	return nil
}

// SecurityHeaderName is the "namespace local" key for mustUnderstand
// accounting in the container.
const SecurityHeaderName = NSWSE + " Security"
