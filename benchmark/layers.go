package main

import (
	"fmt"
	"slices"
	"strings"

	"hybster/benchmark/load"
	"hybster/benchmark/trace"
	"hybster/internal/config"
)

// sumSeries adds up every series of the named metric, whatever its
// labels, optionally only those whose label set contains `label`.
func sumSeries(counters map[string]float64, name, label string) float64 {
	var sum float64
	for full, v := range counters {
		base, labels, _ := strings.Cut(full, "{")
		if base == name && strings.Contains(labels, label) {
			sum += v
		}
	}
	return sum
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedRun is what the per-layer report is computed from.
type tracedRun struct {
	w      *workload
	traced *measurement // windows measured with the seams installed
	plain  *measurement // same windows' length without them (overhead reference)
	report trace.Report
	probes map[string]float64
	// prepareBytes is the wire size of the probes' proposal, the base of
	// the per-byte codec cost.
	prepareBytes int
}

// layerMetrics computes every per-layer metric, in the units spec.go
// declares. The budget formulas are documented in README.md.
func (r *tracedRun) layerMetrics() map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		out[d.name] = 0 // a metric that does not apply reads 0
	}
	for name, v := range r.probes {
		out[name] = v
	}
	m, c := r.traced, r.traced.counters
	_, _, opsInt := m.totals()
	ops := float64(opsInt)
	perOp := func(v float64) float64 { return ratio(v, ops) }
	eng := "hybster_core_"
	if r.w.proto == config.PBFTcop || r.w.proto == config.HybridPBFT {
		eng = "hybster_pbft_"
	}

	// Failover and generator.
	out["outage_ms"] = load.Mean(millis(m.outages))
	out["rejoin_ms"] = load.Mean(millis(m.rejoins))
	if n := len(m.genLag); n > 0 {
		lag := slices.Clone(m.genLag)
		slices.Sort(lag)
		out["gen_lag_p50_ms"] = float64(load.Quantile(lag, 0.5)) / 1e6
		out["gen_lag_p99_ms"] = float64(load.Quantile(lag, 0.99)) / 1e6
	}

	// Informational tail of the UNTRACED reference windows.
	lat := r.plain.allLatencies()
	if pct, ok := load.TailPercentile(len(lat)); ok {
		out["tail_pct"] = pct
		out["tail_us"] = float64(load.Quantile(lat, pct/100)) / 1e3
	}
	out["tail_samples"] = float64(len(lat))

	// Stage decomposition.
	rep := r.report
	out["trace.requests"] = float64(rep.Requests)
	out["trace.incomplete"] = float64(rep.Incomplete)
	out["trace.orphans"] = float64(rep.Orphans)
	out["trace.overhead_share"] = 1 - ratio(m.endToEndValues()["ops_per_s"], r.plain.endToEndValues()["ops_per_s"])
	out["trace.mean_latency_us"] = rep.MeanLatency / 1e3
	for _, stage := range trace.Stages {
		out["stage."+stage+"_us"] = rep.StageMean[stage] / 1e3
	}
	out["stage.residual_share"] = rep.ResidualShare()

	// Counters.
	batches := sumSeries(c, eng+"exec_batches_total", "")
	out["core.reqs_per_batch"] = ratio(sumSeries(c, eng+"exec_requests_total", ""), batches)
	ecalls := sumSeries(c, "hybster_trinx_ecalls_total", "")
	out["trinx.ecalls_per_op"] = perOp(ecalls)
	// Histogram sums are in the histogram's native unit, nanoseconds.
	out["trinx.ecall_us"] = ratio(sumSeries(c, "hybster_trinx_ecall_seconds_sum", ""), sumSeries(c, "hybster_trinx_ecall_seconds_count", "")) / 1e3
	out["verify.wait_us"] = ratio(sumSeries(c, "hybster_verify_latency_ns_sum", ""), sumSeries(c, "hybster_verify_latency_ns_count", "")) / 1e3
	out["verify.rejected"] = sumSeries(c, "hybster_verify_rejected_total", "")
	out["transport.msgs_per_op"] = perOp(float64(m.netMsgs))
	out["transport.bytes_per_op"] = perOp(float64(m.netBytes))
	out["message.marshals_per_op"] = perOp(float64(m.marshals))
	out["wal.fsyncs_per_op"] = perOp(sumSeries(c, "hybster_wal_fsyncs_total", ""))
	out["wal.fsync_ms"] = ratio(sumSeries(c, "hybster_wal_fsync_seconds_sum", ""), sumSeries(c, "hybster_wal_fsync_seconds_count", "")) / 1e6
	out["core.view_changes"] = sumSeries(c, eng+"view_changes_total", "")
	out["core.retransmits_per_op"] = perOp(sumSeries(c, eng+"retransmits_total", ""))
	out["core.state_transfers"] = sumSeries(c, eng+"state_transfers_total", "")

	// Budget: probe cost × calls per operation.
	var cpu float64
	for _, w := range m.windows {
		cpu += float64(w.cpu.Microseconds())
	}
	out["budget.cpu_us_per_op"] = perOp(cpu)
	creates := sumSeries(c, "hybster_trinx_ecalls_total", `op="create`)
	verifies := sumSeries(c, "hybster_trinx_ecalls_total", `op="verify`)
	out["budget.trinx_us_per_op"] = perOp(creates*r.probes["probe.trinx.create_us"] + verifies*r.probes["probe.trinx.verify_us"])
	macUs := r.probes["probe.crypto.authenticator_us"] / float64(r.w.config().N)
	out["budget.crypto_us_per_op"] = r.probes["probe.crypto.authenticator_us"] + r.probes["probe.crypto.digest_us"] +
		perOp(sumSeries(c, "hybster_verify_verified_total", ""))*macUs
	if m.marshals > 0 {
		codecPerByte := (r.probes["probe.message.marshal_prepare_us"] + r.probes["probe.message.unmarshal_prepare_us"]) / float64(r.prepareBytes)
		out["budget.message_us_per_op"] = out["transport.bytes_per_op"] * codecPerByte
	}
	out["budget.reply_us_per_op"] = perOp(sumSeries(c, "hybster_reply_sent_total", "")) * r.probes["probe.reply.submit_us"]
	out["budget.cop_us_per_op"] = perOp(float64(m.netProtocol)+batches) * r.probes["probe.cop.mailbox_us"]
	out["budget.wal_us_per_op"] = perOp(sumSeries(c, "hybster_wal_appends_total", "")) * r.probes["probe.wal.append_us"]
	out["budget.tcp_us_per_op"] = perOp(sumSeries(c, "hybster_transport_sent_frames_total", "")) * r.probes["probe.tcp.frame_us"]
	var attributed float64
	for _, layer := range []string{"trinx", "crypto", "message", "reply", "cop", "wal", "tcp"} {
		attributed += out["budget."+layer+"_us_per_op"]
	}
	out["budget.unattributed_share"] = 1 - ratio(attributed, out["budget.cpu_us_per_op"])
	return out
}

// sanity enforces the bypass facts the interaction table in README.md
// relies on; each violation is one line.
func (r *tracedRun) sanity(layers map[string]float64) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	w := r.w
	if !w.tcp && !w.failover && layers["message.marshals_per_op"] != 0 {
		fail("memnet passes pointers, yet %.3f marshals per operation", layers["message.marshals_per_op"])
	}
	if w.proto == config.PBFTcop && layers["trinx.ecalls_per_op"] != 0 {
		fail("PBFTcop has no trusted subsystem, yet %.3f ECALLs per operation", layers["trinx.ecalls_per_op"])
	}
	if got, most := layers["core.reqs_per_batch"], float64(min(w.clients, batchSize)); got > most {
		fail("%.2f requests per batch with %d clients and batch size %d", got, w.clients, batchSize)
	}
	if got := layers["core.reqs_per_batch"]; got < w.minReqsPerBatch {
		fail("%.2f requests per batch, the workload needs at least %.0f to amortise per-instance cost", got, w.minReqsPerBatch)
	}
	if !w.failover {
		for _, name := range []string{"core.view_changes", "wal.fsyncs_per_op"} {
			if layers[name] != 0 {
				fail("%s = %g on a fault-free volatile workload", name, layers[name])
			}
		}
	} else if lag := layers["gen_lag_p99_ms"]; lag >= maxGenLagP99Ms {
		fail("the open-loop dispatcher ran %.2f ms late at p99 (limit %.1f ms): it was starved", lag, maxGenLagP99Ms)
	}
	return bad
}

// maxTraceOverhead is what tracing may cost in throughput before the
// traced run says so. It is a note and not a failure: the untraced
// reference is one short window on another cluster, and on this host two
// such windows differ by up to 8 % with tracing off in both.
const maxTraceOverhead = 0.10
