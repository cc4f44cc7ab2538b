package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"

	"botgrid/internal/journal"
	"botgrid/internal/serve"
)

// serve-recover times what an operator waits for after a crash:
// serve.NewServer on a data dir whose journal holds no snapshot, so the
// whole log is scanned, replayed and restored into a scheduler. Set-up
// journals ImageDispatch dispatches per client through a real plane and
// keeps a copy of its data dir taken before Close — a crash image; every
// measured call recovers a fresh copy of it.
type recoverSim struct {
	e      *env
	root   string // temp dir: the image and the copy being recovered
	cfg    serve.Config
	traced *planeTrace

	appends        uint64 // records the image's journal had accepted
	acked, submits int64  // what the image's clients were acknowledged
	last           recovered
}

func setupServeRecover(ctx context.Context, e *env, traced bool) (_ system, err error) {
	s := &recoverSim{e: e}
	if traced {
		s.traced = newPlaneTrace(e.tr, 0)
	}
	if s.root, err = os.MkdirTemp("", "botbench-serve-recover-"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			err = errors.Join(err, s.close())
		}
	}()
	// The image is written with fsync off: the bytes are the same and the
	// clients are not held to the group-commit pace serve-durable measures.
	p, err := startPlane(ctx, &plane{e: e, name: "serve-recover", durable: true,
		fsync: journal.FsyncOff, perSeg: e.sz.ImageDispatch}, false)
	if err != nil {
		return nil, err
	}
	s.cfg = p.config()
	if _, err = p.segment(ctx, 0); err == nil {
		_, err = p.drain(ctx)
	}
	if err == nil {
		s.acked, s.submits = p.acked, p.submits
		s.appends, err = p.crashImage(ctx, s.image())
	}
	return s, errors.Join(err, p.close())
}

func (s *recoverSim) image() string { return filepath.Join(s.root, "image") }

func (s *recoverSim) segment(ctx context.Context, k int) (segResult, error) {
	var seg segResult
	work := filepath.Join(s.root, "recovering")
	for i := 0; i < s.e.sz.RecoverReps; i++ {
		if ctx.Err() != nil {
			return seg, context.Cause(ctx)
		}
		if err := copyDir(s.image(), work); err != nil {
			return seg, err
		}
		rec, err := recoverImage(s.cfg, work)
		if err != nil {
			return seg, err
		}
		if err := os.RemoveAll(work); err != nil {
			return seg, err
		}
		s.last = rec
		seg.attempted++
		if uint64(rec.info.RecordsReplayed) != s.appends {
			seg.failed++
		}
		seg.ops += float64(rec.info.RecordsReplayed)
		seg.wall += rec.took
		seg.callsMs = append(seg.callsMs, rec.took.Seconds()*1e3)
	}
	return seg, nil
}

func (s *recoverSim) finish(context.Context) ([]check, error) {
	if s.traced != nil {
		if err := s.traced.timeRecovery(s.cfg, s.image(), filepath.Join(s.root, "scratch")); err != nil {
			return nil, err
		}
	}
	return s.last.checks(s.appends, s.acked, s.submits), nil
}

func (s *recoverSim) close() error { return os.RemoveAll(s.root) }

func (s *recoverSim) layers(context.Context, []segResult) (map[string]float64, error) {
	t := s.traced
	return map[string]float64{
		"journal.open_scan_s":          t.openScan.Seconds(),
		"journal.replay_records_per_s": float64(t.replayed) / t.openScan.Seconds(),
		"serve.restore_s":              t.restore.Seconds(),
	}, nil
}
