package obs

// Wire-level delivery metrics, shared by every outbound notification
// channel: the container client's pooled HTTP transport, its
// paper-faithful per-message mode, and the wse raw-TCP deliverer all
// account here, so /metrics shows in one place whether deliveries are
// riding cached connections or paying a handshake each — the paper's
// "TCP vs. HTTP issue" (§4.1.3) as a live ratio.
var (
	// DeliveryConnsDialed counts connections established for
	// notification/event delivery (TCP connects, HTTP dials including
	// their TLS handshakes).
	DeliveryConnsDialed = NewCounter("ogsa_delivery_conns_dialed_total", "",
		"delivery connections dialed (fresh TCP/TLS setup paid)")
	// DeliveryConnsReused counts deliveries that rode an already-open
	// pooled or cached connection.
	DeliveryConnsReused = NewCounter("ogsa_delivery_conns_reused_total", "",
		"deliveries that reused a pooled or cached connection")
)
