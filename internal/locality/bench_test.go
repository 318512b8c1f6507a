package locality

import "testing"

// BenchmarkSummarize measures the locality summary stage of a snapshot,
// Table 3's weighted averages plus Figure 7's packing CDF, on the hot
// streams of a searched 30k-reference 176.gcc snapshot (thousands of
// short streams) at 64-byte blocks.
func BenchmarkSummarize(b *testing.B) {
	streams, objects := searchedStreams(b, "176.gcc")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Summarize(streams, objects, 64)
		PackingCDF(streams, objects, 64)
	}
}
