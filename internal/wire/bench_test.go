package wire

// Codec micro-benches and the zero-alloc contract they guard:
// TestCodecZeroAlloc runs every case below in the ordinary test suite, so a
// stray allocation on the encode/decode path fails the build, not a
// profile session three PRs later.

import (
	"testing"

	"botgrid/internal/frame"
)

// codecCase is one encode or decode of a fixed message; op reuses buffers
// it owns, so after its first call it runs warm.
type codecCase struct {
	name string
	op   func(i int) error
}

func benchWorks() []float64 {
	works := make([]float64, 64)
	for i := range works {
		works[i] = float64(i + 1)
	}
	return works
}

func encodeCases() []codecCase {
	works := benchWorks()
	fetch := appendFetch(nil, "worker-123456", 10)
	var dst []byte
	return []codecCase{
		{"fetch", func(int) error {
			dst = appendFetch(dst[:0], "worker-123456", 10)
			return nil
		}},
		{"report", func(i int) error {
			dst = appendReport(dst[:0], "worker-123456", uint64(i), i%7 == 0)
			return nil
		}},
		{"submit64", func(int) error {
			dst = appendSubmit(dst[:0], 100, works)
			return nil
		}},
		{"frame", func(int) error {
			dst = frame.AppendTyped(dst[:0], msgBatch, fetch)
			return nil
		}},
	}
}

func decodeCases() []codecCase {
	works := benchWorks()
	fetch := appendFetch(nil, "worker-123456", 10)
	report := appendReport(nil, "worker-123456", 42, false)
	submit := appendSubmit(nil, 100, works)
	fetchResp := appendFetchResp(nil, FetchResult{Assigned: true, Replica: 9, Bag: 3, Task: 41, Work: 12.5}, "")
	dst := make([]float64, 0, len(works))
	return []codecCase{
		{"fetch", func(int) error {
			r := frame.NewReader(fetch)
			_, _, err := decodeFetch(&r)
			return err
		}},
		{"report", func(int) error {
			r := frame.NewReader(report)
			_, _, _, err := decodeReport(&r)
			return err
		}},
		{"submit64", func(int) error {
			r := frame.NewReader(submit)
			var err error
			_, dst, err = decodeSubmit(&r, dst[:0])
			return err
		}},
		{"fetchresp", func(int) error {
			r := frame.NewReader(fetchResp)
			_, _, err := decodeFetchResp(&r)
			return err
		}},
	}
}

func benchCases(b *testing.B, cases []codecCase) {
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.op(i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkWireEncode(b *testing.B) { benchCases(b, encodeCases()) }

func BenchmarkWireDecode(b *testing.B) { benchCases(b, decodeCases()) }

// TestCodecZeroAlloc gates every BenchmarkWireEncode and BenchmarkWireDecode
// case at 0 allocations per message on warm buffers.
func TestCodecZeroAlloc(t *testing.T) {
	for dir, cases := range map[string][]codecCase{
		"encode": encodeCases(),
		"decode": decodeCases(),
	} {
		for _, c := range cases {
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				if err := c.op(i); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if allocs != 0 {
				t.Errorf("%s %s allocates %.0f times per message", dir, c.name, allocs)
			}
		}
	}
}
