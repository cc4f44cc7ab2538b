package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"botgrid/internal/frame"
)

// Segment file layout:
//
//	header:  8-byte magic "BGWAL01\n" + uint64 LE first-LSN
//	frames:  repeated untyped internal/frame frames, one record each
//
// Record N of a segment has LSN firstLSN+N. Frames carry no LSN of their
// own: the log is strictly sequential, so position defines identity. A
// frame that fails the length or CRC check in the *last* segment is a torn
// tail from the crash — everything from it onward is dropped and the file
// truncated. The same failure in an earlier segment means real corruption
// and recovery refuses to proceed.

const (
	segMagic  = "BGWAL01\n"
	segHeader = len(segMagic) + 8
)

// segName formats a segment filename from its first LSN.
func segName(firstLSN uint64) string {
	return fmt.Sprintf("%020d.wal", firstLSN)
}

// parseSegName extracts the first LSN from a segment filename.
func parseSegName(name string) (uint64, bool) {
	base, ok := strings.CutSuffix(name, ".wal")
	if !ok || len(base) != 20 {
		return 0, false
	}
	n, err := strconv.ParseUint(base, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// listSegments returns the segment first-LSNs in dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var firsts []uint64
	for _, e := range ents {
		if first, ok := parseSegName(e.Name()); ok {
			firsts = append(firsts, first)
		}
	}
	sort.Slice(firsts, func(i, j int) bool { return firsts[i] < firsts[j] })
	return firsts, nil
}

// segmentHeader renders the 16-byte segment file header.
func segmentHeader(firstLSN uint64) []byte {
	h := make([]byte, 0, segHeader)
	h = append(h, segMagic...)
	return binary.LittleEndian.AppendUint64(h, firstLSN)
}

// scanResult summarizes one segment scan.
type scanResult struct {
	firstLSN uint64 // from the header
	nextLSN  uint64 // LSN the next record would get
	records  int    // valid records seen
	goodSize int64  // file offset just past the last valid frame
	torn     int64  // trailing bytes that failed validation (0 if clean)
}

// scanSegment reads the segment at path and calls fn for each valid record
// payload in order. Validation stops at the first bad frame; the remainder
// is reported as torn rather than failing the scan. The file is read
// through a window of a few hundred kilobytes, grown only for a larger
// frame, never whole. Payload slices passed to fn alias the window and
// must not be retained.
func scanSegment(path string, fn func(lsn uint64, payload []byte) error) (scanResult, error) {
	var res scanResult
	f, err := os.Open(path)
	if err != nil {
		return res, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return res, err
	}
	// win[lo:] is read and not yet scanned; res.goodSize counts the file's
	// bytes before win[0] until the scan ends.
	win, lo, eof := make([]byte, 0, 256<<10), 0, false
	fill := func() error {
		res.goodSize += int64(lo)
		win, lo = append(win[:0], win[lo:]...), 0
		if len(win) == cap(win) {
			win = slices.Grow(win, len(win))
		}
		n, err := f.Read(win[len(win):cap(win)])
		win = win[:len(win)+n]
		if err == io.EOF {
			eof, err = true, nil
		}
		return err
	}
	for len(win) < segHeader && !eof {
		if err := fill(); err != nil {
			return res, err
		}
	}
	if len(win) < segHeader || string(win[:len(segMagic)]) != segMagic {
		return res, fmt.Errorf("journal: %s: bad segment header", filepath.Base(path))
	}
	res.firstLSN = binary.LittleEndian.Uint64(win[len(segMagic):])
	res.nextLSN = res.firstLSN
	lo = segHeader
	for {
		payload, _, err := frame.Next(win[lo:])
		if errors.Is(err, frame.ErrTruncated) && !eof {
			if err := fill(); err != nil {
				return res, err
			}
			continue
		}
		if err != nil {
			break
		}
		if fn != nil {
			if err := fn(res.nextLSN, payload); err != nil {
				return res, err
			}
		}
		res.nextLSN++
		res.records++
		lo += frame.HeaderSize + len(payload)
	}
	res.goodSize += int64(lo)
	res.torn = fi.Size() - res.goodSize
	return res, nil
}
