package wire

// Codec micro-benches guarding the zero-alloc contract: `make bench`
// runs these under benchjson's -require-zero-allocs gate, so a stray
// allocation on the encode/decode path fails the build, not a profile
// session three PRs later.

import (
	"testing"

	"botgrid/internal/frame"
)

func BenchmarkWireEncode(b *testing.B) {
	works := make([]float64, 64)
	for i := range works {
		works[i] = float64(i + 1)
	}
	b.Run("fetch", func(b *testing.B) {
		var dst []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = appendFetch(dst[:0], "worker-123456", 10)
		}
	})
	b.Run("report", func(b *testing.B) {
		var dst []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = appendReport(dst[:0], "worker-123456", uint64(i), i%7 == 0)
		}
	})
	b.Run("submit64", func(b *testing.B) {
		var dst []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = appendSubmit(dst[:0], 100, works)
		}
	})
	b.Run("frame", func(b *testing.B) {
		payload := appendFetch(nil, "worker-123456", 10)
		var dst []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = frame.AppendTyped(dst[:0], msgBatch, payload)
		}
	})
}

func BenchmarkWireDecode(b *testing.B) {
	works := make([]float64, 64)
	for i := range works {
		works[i] = float64(i + 1)
	}
	b.Run("fetch", func(b *testing.B) {
		payload := appendFetch(nil, "worker-123456", 10)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := reader{data: payload}
			if _, _, err := decodeFetch(&r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("report", func(b *testing.B) {
		payload := appendReport(nil, "worker-123456", 42, false)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := reader{data: payload}
			if _, _, _, err := decodeReport(&r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("submit64", func(b *testing.B) {
		payload := appendSubmit(nil, 100, works)
		dst := make([]float64, 0, len(works))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := reader{data: payload}
			var err error
			if _, dst, err = decodeSubmit(&r, dst[:0]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fetchresp", func(b *testing.B) {
		payload := appendFetchResp(nil, FetchResult{Assigned: true, Replica: 9, Bag: 3, Task: 41, Work: 12.5}, "")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := reader{data: payload}
			if _, _, err := decodeFetchResp(&r); err != nil {
				b.Fatal(err)
			}
		}
	})
}
