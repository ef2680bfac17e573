package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// client is one load source: one HTTP connection to the daemon, reused
// for every request it sends.
type client struct {
	base  string
	class string // X-SLO-Class of its submissions
	hc    *http.Client
	tr    *tracer // nil when tracing is off
}

func newClient(base, class string, tr *tracer) *client {
	return &client{base: base, class: class, tr: tr, hc: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is the accepted-submission document of /v1/sweeps and /v1/plans.
type reply struct {
	ID        string `json:"id"`
	Points    int    `json:"points"`
	Outcomes  string `json:"outcomes_url"`
	PointsURL string `json:"points_url"`
}

// result is one submitted request: its id, the raw stream bytes, and
// when it was sent, first answered and finished.
type result struct {
	id                    string
	points                int
	body                  []byte
	start, first, settled time.Time // POST sent, first stream byte, last line
}

func (r result) wall() time.Duration { return r.settled.Sub(r.start) }

// submit POSTs a spec to /v1/<kind> and reads the whole NDJSON stream
// into memory. Nothing is parsed beyond the small submission reply, so
// the client competes as little as possible with the daemon for CPU.
func (c *client) submit(kind string, spec []byte, points int) (result, error) {
	res := result{start: time.Now()}
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/"+kind, bytes.NewReader(spec))
	if err != nil {
		return res, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-SLO-Class", c.class)
	resp, err := c.hc.Do(req)
	if err != nil {
		return res, fmt.Errorf("POST /v1/%s: %w", kind, err)
	}
	var rep reply
	err = decodeReply(resp, http.StatusAccepted, &rep)
	if err != nil {
		return res, fmt.Errorf("POST /v1/%s: %w", kind, err)
	}
	submitted := time.Now()
	res.id, res.points = rep.ID, rep.Points
	url := rep.Outcomes
	if kind == "plans" {
		url = rep.PointsURL
	}
	resp, err = c.hc.Get(c.base + url)
	if err != nil {
		return res, fmt.Errorf("GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return res, fmt.Errorf("GET %s: status %s", url, resp.Status)
	}
	// Each outcome line is under 300 bytes; size the buffer once.
	buf := bytes.NewBuffer(make([]byte, 0, points*300+4096))
	first := make([]byte, 1)
	if _, err := io.ReadFull(resp.Body, first); err != nil {
		return res, fmt.Errorf("GET %s: %w", url, err)
	}
	res.first = time.Now()
	buf.Write(first)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return res, fmt.Errorf("GET %s: %w", url, err)
	}
	res.settled = time.Now()
	res.body = buf.Bytes()
	if c.tr != nil {
		id := c.tr.add(0, "http."+kind, res.id, res.start, res.settled, res.points)
		c.tr.add(id, "http.submit", res.id, res.start, submitted, 0)
		c.tr.add(id, "http.first_byte", res.id, submitted, res.first, 0)
		c.tr.add(id, "http.last_line", res.id, res.first, res.settled, res.points)
	}
	return res, nil
}

// sessionStatus is the part of a sweep status document the checks read.
type sessionStatus struct {
	State  string `json:"state"`
	Points int    `json:"points"`
	Hits   uint64 `json:"cache_hits"`
	Misses uint64 `json:"cache_misses"`
}

// status fetches /v1/sweeps/<id>.
func (c *client) status(id string) (sessionStatus, error) {
	start := time.Now()
	var st sessionStatus
	err := c.getJSON("/v1/sweeps/"+id, &st)
	if c.tr != nil {
		c.tr.add(0, "http.status", id, start, time.Now(), 0)
	}
	return st, err
}

// getJSON fetches a JSON document.
func (c *client) getJSON(path string, v any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if err := decodeReply(resp, http.StatusOK, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// decodeReply checks the status code and decodes a JSON body, closing it.
func decodeReply(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("status %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}
