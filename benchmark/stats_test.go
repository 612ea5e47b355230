package main

import (
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose; must not be reordered
	cases := []struct {
		q    float64
		want float64
	}{
		{0.50, 3}, // ceil(2.5) = 3rd smallest
		{0.20, 1}, // exactly the first
		{0.21, 2},
		{0.99, 5}, // fewer than 100 samples: the maximum
		{1.00, 5},
	}
	for _, c := range cases {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 || xs[4] != 3 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}

	// 1000 samples 1..1000: p99 leaves exactly ten beyond it.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(1000 - i)
	}
	if got := percentile(big, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := percentile(big, 0.50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("odd median = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
}

func TestWorsening(t *testing.T) {
	lower := metricDef{Better: "lower"}
	higher := metricDef{Better: "higher"}
	if got := worsening(lower, 10, 12); got < 0.1999 || got > 0.2001 {
		t.Errorf("latency 10→12 worsens by %v, want 0.2", got)
	}
	if got := worsening(lower, 10, 8); got >= 0 {
		t.Errorf("latency 10→8 is an improvement, got worsening %v", got)
	}
	if got := worsening(higher, 100, 80); got < 0.1999 || got > 0.2001 {
		t.Errorf("throughput 100→80 worsens by %v, want 0.2", got)
	}
	if got := worsening(higher, 100, 120); got >= 0 {
		t.Errorf("throughput 100→120 is an improvement, got worsening %v", got)
	}
}

func TestCompareReportsAppliesBounds(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricDef{
		{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
		{Name: "throughput_ops", Unit: "1/s", Better: "higher", Bound: 0.10},
	}}
	report := func(p50, tput float64, failed int) fullReport {
		return fullReport{Workloads: []workloadReport{{
			Workload: "w",
			result: result{Failed: failed, Metrics: map[string]metricValue{
				"op_p50_ms":      {Value: p50, Unit: "ms"},
				"throughput_ops": {Value: tput, Unit: "1/s"},
			}},
		}}}
	}
	base := report(1.0, 1000, 0)
	if n := compareReports(spec, base, report(1.09, 950, 0)); n != 0 {
		t.Errorf("changes within their bounds flagged %d times", n)
	}
	if n := compareReports(spec, base, report(1.11, 1000, 0)); n != 1 {
		t.Errorf("p50 +11%% against a 10%% bound flagged %d times, want 1", n)
	}
	if n := compareReports(spec, base, report(1.0, 880, 0)); n != 1 {
		t.Errorf("throughput -12%% against a 10%% bound flagged %d times, want 1", n)
	}
	if n := compareReports(spec, base, report(1.0, 1000, 1)); n != 1 {
		t.Errorf("one more failed operation flagged %d times, want 1", n)
	}
	if n := compareReports(spec, base, fullReport{}); n != 1 {
		t.Errorf("a missing workload flagged %d times, want 1", n)
	}

	// A row that restates another on its workload is printed, not judged:
	// on a batch workload first_result_p50_ms is op_p50_ms again.
	spec.EndToEnd = append(spec.EndToEnd, metricDef{Name: "first_result_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10})
	dup := func(name string, p50 float64) fullReport {
		r := report(p50, 1000, 0)
		r.Workloads[0].Workload = name
		r.Workloads[0].Metrics["first_result_p50_ms"] = metricValue{Value: p50, Unit: "ms"}
		return r
	}
	if n := compareReports(spec, dup("batch_meta", 1.0), dup("batch_meta", 1.2)); n != 1 {
		t.Errorf("one slowdown of a batch workload flagged %d times, want 1", n)
	}
	if n := compareReports(spec, dup("serve_stream_reads", 1.0), dup("serve_stream_reads", 1.2)); n != 2 {
		t.Errorf("a stream's two distinct latencies flagged %d times, want 2", n)
	}
}
