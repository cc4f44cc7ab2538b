package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

// Client speaks the work-dispatch protocol to one server or to a
// replicated cluster. It remembers the last address that answered and
// tries the others when that one stops: a follower redirects mutating
// requests to the leader with a 307 (the HTTP client replays the body
// there transparently), a node that is down or mid-election rotates the
// client to the next address. With a single address it is a plain
// client. Safe for concurrent use (many SimWorkers share one Client and
// its connection pool).
type Client struct {
	bases []string
	hc    *http.Client
	cur   atomic.Int32
}

// NewClient returns a client for the server — or the cluster nodes — at
// the given base URLs (e.g. "http://127.0.0.1:8431"). The connection pool
// is sized for hundreds of concurrent workers.
func NewClient(bases ...string) *Client {
	tr := &http.Transport{
		MaxIdleConns:        512,
		MaxIdleConnsPerHost: 512,
	}
	return &Client{bases: bases, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

// post sends a JSON request and decodes the JSON response into out.
func (c *Client) post(path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return c.do(path, body, out)
}

func (c *Client) get(path string, out any) error { return c.do(path, nil, out) }

// do runs one request (a POST of body, or a GET when body is nil),
// rotating past unreachable or leaderless (503) addresses. Other
// application-level failures (4xx, 500) are returned without rotating:
// they came from a live leader and retrying elsewhere cannot change the
// answer.
func (c *Client) do(path string, body []byte, out any) error {
	var lastErr error
	start := int(c.cur.Load())
	for i := range c.bases {
		idx := (start + i) % len(c.bases)
		status, err := c.try(c.bases[idx], path, body, out)
		if status == 0 || status == http.StatusServiceUnavailable {
			lastErr = err
			continue
		}
		if err == nil && idx != start {
			c.cur.Store(int32(idx))
		}
		return err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("serve: %s: no server addresses", path)
	}
	return lastErr
}

// try runs one request against one address and returns the HTTP status
// it answered with, 0 when it did not answer.
func (c *Client) try(base, path string, body []byte, out any) (int, error) {
	var resp *http.Response
	var err error
	if body == nil {
		resp, err = c.hc.Get(base + path)
	} else {
		resp, err = c.hc.Post(base+path, "application/json", bytes.NewReader(body))
	}
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return resp.StatusCode, decodeResponse(resp, path, out)
}

func decodeResponse(resp *http.Response, path string, out any) error {
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("serve: %s: status %d: %s", path, resp.StatusCode, e.Error)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// LeaderStats polls every address and returns the leader's scheduler
// snapshot, or an error when no node currently leads.
func (c *Client) LeaderStats() (StatsResponse, error) {
	var lastErr error
	for _, base := range c.bases {
		var st StatsResponse
		if _, err := c.try(base, "/v1/stats", nil, &st); err != nil {
			lastErr = err
			continue
		}
		// A node counts as the leader only when it answers with full
		// scheduler stats (Policy set): a candidate, or a freshly elected
		// leader still mid-promotion, reports its replication state alone.
		if st.Replication == nil || st.Replication.Role != "leader" || st.Policy == "" {
			lastErr = fmt.Errorf("serve: %s is not leading", base)
			continue
		}
		return st, nil
	}
	return StatsResponse{}, fmt.Errorf("serve: no leader answered stats: %w", lastErr)
}

// Submit enters a bag and returns its ID.
func (c *Client) Submit(granularity float64, works []float64) (int, error) {
	var resp SubmitResponse
	err := c.post("/v1/bags", SubmitRequest{Granularity: granularity, Works: works}, &resp)
	return resp.Bag, err
}

// Bag returns a bag's status.
func (c *Client) Bag(id int) (BagStatus, error) {
	var st BagStatus
	err := c.get(fmt.Sprintf("/v1/bags/%d", id), &st)
	return st, err
}

// Fetch requests worker id's current assignment.
func (c *Client) Fetch(worker string, power float64) (FetchResponse, error) {
	var resp FetchResponse
	err := c.post("/v1/workers/"+worker+"/fetch", FetchRequest{Power: power}, &resp)
	return resp, err
}

// Report reports an assignment outcome (StatusDone or StatusFailed).
func (c *Client) Report(worker string, replica uint64, status string) (string, error) {
	var resp ReportResponse
	err := c.post("/v1/workers/"+worker+"/report",
		ReportRequest{Replica: replica, Status: status}, &resp)
	return resp.Ack, err
}

// Heartbeat renews worker id's lease mid-computation; an AckStale return
// means the replica was superseded and the work should be abandoned.
func (c *Client) Heartbeat(worker string, replica uint64) (string, error) {
	var resp HeartbeatResponse
	err := c.post("/v1/workers/"+worker+"/heartbeat", HeartbeatRequest{Replica: replica}, &resp)
	return resp.Ack, err
}

// Stats returns the scheduler snapshot from whichever address answers
// first; a cluster follower's answer carries only the Replication field.
func (c *Client) Stats() (StatsResponse, error) {
	var st StatsResponse
	err := c.get("/v1/stats", &st)
	return st, err
}
