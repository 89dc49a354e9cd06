package telemetry

// Telemetry bundles the two per-replica instruments — the metrics
// registry and the event tracer — into the single handle that threads
// through engine Options. A nil *Telemetry disables everything: every
// accessor below (and every instrument they return) tolerates nil, so
// instrumented code never branches on "is telemetry on".
type Telemetry struct {
	metrics *Registry
	tracer  *Tracer
}

// New creates a bundle with a fresh registry and a tracer of the
// default depth tagged with protocol.
func New(protocol string) *Telemetry {
	return &Telemetry{metrics: NewRegistry(), tracer: NewTracer(protocol, 0)}
}

// NewFor creates a bundle whose tracer is additionally tagged with the
// replica's ID — the identity cross-replica trace merging keys on.
func NewFor(protocol string, replica uint32) *Telemetry {
	t := New(protocol)
	t.tracer.SetReplica(replica)
	return t
}

// Metrics returns the registry (nil when disabled).
func (t *Telemetry) Metrics() *Registry {
	if t == nil {
		return nil
	}
	return t.metrics
}

// Tracer returns the event tracer (nil when disabled).
func (t *Telemetry) Tracer() *Tracer {
	if t == nil {
		return nil
	}
	return t.tracer
}

// Counter resolves a counter from the bundle's registry (nil-safe).
func (t *Telemetry) Counter(name, help string, labels ...Label) *Counter {
	return t.Metrics().Counter(name, help, labels...)
}

// Gauge resolves a gauge (nil-safe).
func (t *Telemetry) Gauge(name, help string, labels ...Label) *Gauge {
	return t.Metrics().Gauge(name, help, labels...)
}

// GaugeFunc registers a sampled gauge (nil-safe).
func (t *Telemetry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	t.Metrics().GaugeFunc(name, help, fn, labels...)
}

// Histogram resolves a histogram (nil-safe).
func (t *Telemetry) Histogram(name, help string, labels ...Label) *Histogram {
	return t.Metrics().Histogram(name, help, labels...)
}

// Trace records one protocol event (nil-safe).
func (t *Telemetry) Trace(kind EventKind, view, slot uint64, pillar uint32, note string) {
	t.Tracer().Record(kind, view, slot, pillar, note)
}

// TraceDigest records one protocol event carrying a digest correlation
// key (nil-safe).
func (t *Telemetry) TraceDigest(kind EventKind, view, slot uint64, pillar uint32, digest []byte, note string) {
	t.Tracer().RecordDigest(kind, view, slot, pillar, digest, note)
}
