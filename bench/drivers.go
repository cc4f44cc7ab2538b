package main

import (
	"context"
	"fmt"
	"time"

	"botgrid/internal/rng"
	"botgrid/internal/serve"
	"botgrid/internal/wire"
)

// The load generators. Both speak for Identities worker identities each and
// run the paper's pull cycle with the compute time removed: fetch, then
// report done. Neither sleeps, retries or redials — on the workloads chosen
// no operation fails, so anything unexpected is counted as a failure and a
// transport error ends the run.

// feed is the part of a driver that keeps the queue steady: every BagTasks
// assignments received, one BagTasks-task bag goes back in. Task works are
// drawn from the run's seed; the server only ever sees generated inputs.
type feed struct {
	str      *rng.Stream
	works    []float64
	received int // assignments since the last submit
}

func newFeed(e *env, client int) feed {
	return feed{
		str:   rng.Root(e.seed, fmt.Sprintf("bench-works/%d", client)),
		works: make([]float64, e.sz.BagTasks),
	}
}

const bagGranularity = 1000

// bag draws the next bag's task works.
func (f *feed) bag() []float64 {
	for i := range f.works {
		f.works[i] = f.str.Uniform(0.5*bagGranularity, 1.5*bagGranularity)
	}
	return f.works
}

// due reports whether a submit is owed, and books it.
func (f *feed) due() bool {
	if f.received < len(f.works) {
		return false
	}
	f.received -= len(f.works)
	return true
}

func identities(e *env, client int) []string {
	ids := make([]string, e.sz.Identities)
	for i := range ids {
		ids[i] = fmt.Sprintf("w%d-%04d", client, i)
	}
	return ids
}

// wireDriver is one persistent wire.Client walking its identities in groups
// of Group: each batch carries the previous group's done-reports, this
// group's fetches and, when owed, one submit. The timed call is Batch.Do.
type wireDriver struct {
	e      *env
	client int
	c      *wire.Client
	ids    []string
	next   int // start of the next group in ids
	feed   feed
	// held are the assignments received and not yet reported.
	heldWorker  []string
	heldReplica []uint64
	seq         uint64      // batches sent, for span pairing
	dec         *planeTrace // nil when untraced
}

func newWireDriver(e *env, client int, addr string, dec *planeTrace) (*wireDriver, error) {
	c, err := wire.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("client %d: %w", client, err)
	}
	return &wireDriver{e: e, client: client, c: c, ids: identities(e, client), feed: newFeed(e, client), dec: dec}, nil
}

func (d *wireDriver) prime(bags int, out *driverSeg) error {
	for i := 0; i < bags; i++ {
		out.attempted++
		if _, err := d.c.Submit(bagGranularity, d.feed.bag()); err != nil {
			return err
		}
		out.submits++
		d.seq++ // one burst on the server, like a batch
	}
	return nil
}

func (d *wireDriver) dispatch(ctx context.Context, n int, out *driverSeg) error {
	for out.acked < int64(n) {
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		group := d.ids[d.next:min(d.next+d.e.sz.Group, len(d.ids))]
		if d.next += len(group); d.next >= len(d.ids) {
			d.next = 0
		}
		if err := d.batch(group, out); err != nil {
			return err
		}
	}
	return nil
}

func (d *wireDriver) drain(_ context.Context, out *driverSeg) error {
	return d.batch(nil, out)
}

// batch does one round-trip: reports for everything held, fetches for the
// group, a submit when one is owed.
func (d *wireDriver) batch(group []string, out *driverSeg) error {
	built := time.Now()
	b := d.c.NewBatch()
	reports := len(d.heldWorker)
	for i, w := range d.heldWorker {
		b.Report(w, d.heldReplica[i], false)
	}
	for _, w := range group {
		b.Fetch(w, 0)
	}
	submit := len(group) > 0 && d.feed.due()
	if submit {
		b.Submit(bagGranularity, d.feed.bag())
	}
	if b.Len() == 0 {
		return nil
	}
	sent := time.Now()
	res, err := b.Do()
	rtt := time.Since(sent)
	if err != nil {
		return fmt.Errorf("client %d batch %d: %w", d.client, d.seq, err)
	}
	if d.dec != nil && d.dec.on.Load() {
		d.dec.tr.span("wire.rtt", d.dec.tr.id(layerRTT, d.client, d.seq), 0, sent, sent.Add(rtt))
	}
	d.seq++
	out.callsMs = append(out.callsMs, rtt.Seconds()*1e3)
	out.attempted += int64(len(res))

	for _, r := range res[:reports] {
		if r.Ack == wire.AckOK {
			out.acked++
		} else {
			out.failed++
		}
	}
	d.heldWorker, d.heldReplica = d.heldWorker[:0], d.heldReplica[:0]
	for i, w := range group {
		r := res[reports+i]
		out.fetches++
		switch {
		case r.Err != "":
			out.failed++
		case r.Fetch.Assigned:
			out.assigned++
			d.feed.received++
			d.heldWorker = append(d.heldWorker, w)
			d.heldReplica = append(d.heldReplica, r.Fetch.Replica)
		}
	}
	if submit {
		if res[len(res)-1].Err != "" {
			out.failed++
		} else {
			out.submits++
		}
	}
	out.requests++
	out.rtt += rtt
	out.build += time.Since(built) - rtt
	return nil
}

func (d *wireDriver) close() error { return d.c.Close() }

// httpDriver is one closed-loop goroutine's share of a keep-alive
// serve.Client: one fetch request and one report request per dispatch, one
// submit per BagTasks. The timed call is the fetch.
type httpDriver struct {
	e      *env
	client int
	c      *serve.Client
	ids    []string
	next   int
	feed   feed
	seq    uint64
	dec    *planeTrace // nil when untraced
}

func newHTTPDriver(e *env, client int, c *serve.Client, dec *planeTrace) *httpDriver {
	return &httpDriver{e: e, client: client, c: c, ids: identities(e, client), feed: newFeed(e, client), dec: dec}
}

func (d *httpDriver) prime(bags int, out *driverSeg) error {
	for i := 0; i < bags; i++ {
		out.attempted++
		if _, err := d.c.Submit(bagGranularity, d.feed.bag()); err != nil {
			return err
		}
		out.submits++
	}
	return nil
}

// begin marks the start of one request; end closes its span and returns
// the round-trip time.
func (d *httpDriver) begin() time.Time {
	if d.dec != nil {
		// The handler decorator reads this to name its parent span.
		d.dec.httpSeq[d.client].Store(d.seq)
	}
	return time.Now()
}

func (d *httpDriver) end(sent time.Time) time.Duration {
	rtt := time.Since(sent)
	if d.dec != nil && d.dec.on.Load() {
		d.dec.tr.span("http.rtt", d.dec.tr.id(layerRTT, d.client, d.seq), 0, sent, sent.Add(rtt))
	}
	d.seq++
	return rtt
}

func (d *httpDriver) dispatch(ctx context.Context, n int, out *driverSeg) error {
	for out.acked < int64(n) {
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		built := time.Now()
		w := d.ids[d.next]
		if d.next++; d.next == len(d.ids) {
			d.next = 0
		}
		sent := d.begin()
		fr, err := d.c.Fetch(w, 0)
		inCalls := d.end(sent)
		out.requests++
		if err != nil {
			return fmt.Errorf("client %d fetch: %w", d.client, err)
		}
		out.callsMs = append(out.callsMs, inCalls.Seconds()*1e3)
		out.attempted++
		out.fetches++
		if fr.Assigned {
			out.assigned++
			d.feed.received++
			sent := d.begin()
			ack, err := d.c.Report(w, fr.Assignment.Replica, serve.StatusDone)
			inCalls += d.end(sent)
			out.requests++
			if err != nil {
				return fmt.Errorf("client %d report: %w", d.client, err)
			}
			out.attempted++
			if ack == serve.AckOK {
				out.acked++
			} else {
				out.failed++
			}
		}
		if d.feed.due() {
			sent := d.begin()
			_, err := d.c.Submit(bagGranularity, d.feed.bag())
			inCalls += d.end(sent)
			out.requests++
			if err != nil {
				return fmt.Errorf("client %d submit: %w", d.client, err)
			}
			out.attempted++
			out.submits++
		}
		out.rtt += inCalls
		out.build += time.Since(built) - inCalls
	}
	return nil
}

// drain has nothing to do: an HTTP dispatch reports before it moves on.
func (d *httpDriver) drain(context.Context, *driverSeg) error { return nil }

func (d *httpDriver) close() error { return nil }
