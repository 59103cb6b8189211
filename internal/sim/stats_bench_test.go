package sim

import "testing"

// Latency histograms sit on every simulated transaction, so their observe
// cost multiplies into every experiment's wall-clock.

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(Duration(i%100000) * Nanosecond)
	}
}
