package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed loop's width. The bench host has two CPUs and an
// ER ingest client needs its assigned ID and candidates before it sends
// the next record, so two callers each wait for their reply on their own
// keep-alive connection; offered load is capped at 2/latency.
const clients = 2

// adminClient carries the harness's own control-plane calls (/readyz,
// /metrics, status) on throw-away connections, so the server never holds
// more than the two measured keep-alive connections.
var adminClient = &http.Client{
	Transport: &http.Transport{DisableKeepAlives: true},
	Timeout:   30 * time.Second,
}

// newConn returns an HTTP client that owns exactly one keep-alive
// connection.
func newConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// candidate is one ranked comparison suggestion as the wire carries it.
// Go's JSON float encoding round-trips, so Weight compares bit-for-bit
// with the oracle's.
type candidate struct {
	ID     int     `json:"id"`
	Weight float64 `json:"weight"`
}

// resolveReply is the body of a plain /v1/resolve answer.
type resolveReply struct {
	ID         int         `json:"id"`
	Candidates []candidate `json:"candidates"`
	Degraded   bool        `json:"degraded"`
}

// opResult is what one operation of the closed loop observed. A plain
// resolve has one hop; a stream has one per request it took to reach the
// done frame.
type opResult struct {
	start       time.Time
	latency     time.Duration // operation start → last byte of the last reply
	firstResult time.Duration // operation start → first candidates readable
	raw         []byte        // plain resolve: reply body, decoded off the clock
	hops        []streamHop   // stream: what each request delivered
	err         error
}

// streamHop is one request of a followed stream.
type streamHop struct {
	id        int         // meta.id: the assigned ID (first hop) or the resumed one
	batch     []candidate // every batch frame of the hop, concatenated
	done      bool        // terminated by a done frame rather than a cursor
	totalSeen int         // total_emitted of the terminal frame
}

// opHeader names the operation a request belongs to, for the traced
// pass's own handler middleware; end-to-end runs send no such header.
const opHeader = "X-Bench-Op"

func newPost(url string, opID int, body []byte) (*http.Request, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if opID >= 0 {
		req.Header.Set(opHeader, strconv.Itoa(opID))
	}
	return req, nil
}

// postResolve sends one plain resolve and reads the whole reply; the
// clock stops before the body is decoded.
func postResolve(c *http.Client, base string, opID int, body []byte) opResult {
	req, err := newPost(base+"/v1/resolve", opID, body)
	if err != nil {
		return opResult{err: err}
	}
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return opResult{err: err}
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return opResult{err: err}
	}
	if resp.StatusCode != http.StatusOK {
		return opResult{err: fmt.Errorf("resolve: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))}
	}
	return opResult{start: start, latency: lat, firstResult: lat, raw: raw}
}

// streamFrame is the NDJSON envelope: one field set per line.
type streamFrame struct {
	Meta *struct {
		ID       int  `json:"id"`
		Degraded bool `json:"degraded"`
	} `json:"meta"`
	Batch []candidate `json:"batch"`
	Done  *struct {
		TotalEmitted int `json:"total_emitted"`
	} `json:"done"`
	Cursor *struct {
		Cursor       string `json:"cursor"`
		TotalEmitted int    `json:"total_emitted"`
	} `json:"cursor"`
}

// streamPage is how many comparisons each request of a stream pays for
// (?max_comparisons). A k=64 neighbourhood therefore takes about four
// requests: one write and three read-only re-gathers.
const streamPage = 16

// followStream posts the profile as an NDJSON stream and follows its
// cursors to the done frame.
func followStream(c *http.Client, base string, opID int, body []byte) opResult {
	start := time.Now()
	res := opResult{start: start}
	cursor := ""
	for {
		q := url.Values{"max_comparisons": {fmt.Sprint(streamPage)}}
		if cursor != "" {
			q.Set("cursor", cursor)
		}
		req, err := newPost(base+"/v1/resolve?"+q.Encode(), opID, body)
		if err != nil {
			return opResult{err: err}
		}
		req.Header.Set("Accept", "application/x-ndjson")
		hop := streamHop{id: -1}
		resp, err := c.Do(req)
		if err != nil {
			return opResult{err: err}
		}
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			return opResult{err: fmt.Errorf("stream: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))}
		}
		cursor = ""
		br := bufio.NewReader(resp.Body)
		for {
			line, rerr := br.ReadBytes('\n')
			if len(bytes.TrimSpace(line)) > 0 {
				var fr streamFrame
				if err := json.Unmarshal(line, &fr); err != nil {
					resp.Body.Close()
					return opResult{err: fmt.Errorf("stream frame: %w", err)}
				}
				switch {
				case fr.Meta != nil:
					hop.id = fr.Meta.ID
					if fr.Meta.Degraded {
						resp.Body.Close()
						return opResult{err: fmt.Errorf("stream %d served degraded", hop.id)}
					}
				case fr.Batch != nil:
					if res.firstResult == 0 {
						res.firstResult = time.Since(start)
					}
					hop.batch = append(hop.batch, fr.Batch...)
				case fr.Done != nil:
					hop.done, hop.totalSeen = true, fr.Done.TotalEmitted
				case fr.Cursor != nil:
					cursor, hop.totalSeen = fr.Cursor.Cursor, fr.Cursor.TotalEmitted
				}
			}
			if rerr != nil {
				break
			}
		}
		resp.Body.Close()
		res.hops = append(res.hops, hop)
		if hop.done {
			res.latency = time.Since(start)
			if res.firstResult == 0 {
				// A profile with no neighbours: the done frame is the result.
				res.firstResult = res.latency
			}
			return res
		}
		if cursor == "" {
			return opResult{err: fmt.Errorf("stream %d ended with neither done nor cursor", hop.id)}
		}
	}
}

// newConns opens the closed loop's connections; they live as long as the
// server they talk to, so the timed section runs on warm connections.
func newConns() []*http.Client {
	conns := make([]*http.Client, clients)
	for i := range conns {
		conns[i] = newConn()
	}
	return conns
}

func closeConns(conns []*http.Client) {
	for _, c := range conns {
		c.CloseIdleConnections()
	}
}

// opFunc is one operation of the closed loop: a plain resolve or a
// followed stream. opID is -1 on end-to-end runs.
type opFunc func(c *http.Client, base string, opID int, body []byte) opResult

// parallelLoop runs fn(worker, i) for i in [0, n) on `workers` goroutines
// that take the next i from one shared sequence, each only after its
// previous call returned: a closed loop.
func parallelLoop(ctx context.Context, n, workers int, fn func(worker, i int)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// closedLoop runs op over bodies with one caller per connection. It
// returns the per-operation results in input order and the wall time of
// the loop. traced tells op to name its operation to the server.
func closedLoop(ctx context.Context, conns []*http.Client, base string, bodies [][]byte, op opFunc, traced bool) ([]opResult, time.Duration) {
	results := make([]opResult, len(bodies))
	wall := parallelLoop(ctx, len(bodies), len(conns), func(w, i int) {
		opID := -1
		if traced {
			opID = i
		}
		results[i] = op(conns[w], base, opID, bodies[i])
	})
	if err := ctx.Err(); err != nil {
		for i := range results {
			if results[i].latency == 0 && results[i].err == nil {
				results[i].err = err
			}
		}
	}
	return results, wall
}

// getBody fetches an admin endpoint.
func getBody(url string) ([]byte, error) {
	resp, err := adminClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return b, nil
}
