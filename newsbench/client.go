package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/blobstore"
)

// reqHeader carries the benchmark's request id, so a traced run can pair
// each client span with the server-side handler span.
const reqHeader = "X-Newsbench-Req"

// client speaks to one node's HTTP API the way a remote app would.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer // nil when untraced
}

func newClient(base string, tr *tracer) *client {
	return &client{
		base: base,
		tr:   tr,
		hc: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 8,
				IdleConnTimeout:     time.Minute,
			},
		},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// errRefused marks a 429: the node shed the request.
type errRefused struct{ route string }

func (e errRefused) Error() string { return "refused (429) on " + e.route }

// do sends one request and returns the body of a 200 reply. route names
// the endpoint in spans.
func (c *client) do(route, method, path string, body []byte, ctype string) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	var sp *span
	if c.tr != nil {
		sp = c.tr.start("client."+route, 0)
		req.Header.Set(reqHeader, strconv.FormatUint(sp.ID, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.tr.end(sp)
		return nil, err
	}
	out, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.tr.end(sp)
	if rerr != nil {
		return nil, rerr
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return out, nil
	case http.StatusTooManyRequests:
		return nil, errRefused{route}
	default:
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
	}
}

func (c *client) getJSON(route, path string, v any) error {
	raw, err := c.do(route, http.MethodGet, path, nil, "")
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}

// txReply is the POST /v1/tx reply.
type txReply struct {
	TxID      string `json:"txId"`
	Committed bool   `json:"committed"`
	OK        bool   `json:"ok"`
	Err       string `json:"err"`
}

func (c *client) submit(tx []byte) (txReply, error) {
	body, _ := json.Marshal(map[string]string{"txHex": hex.EncodeToString(tx)})
	var r txReply
	raw, err := c.do("tx", http.MethodPost, "/v1/tx", body, "application/json")
	if err != nil {
		return r, err
	}
	return r, json.Unmarshal(raw, &r)
}

// upload stores a body off-chain and checks the returned content id.
func (c *client) upload(a *article) error {
	raw, err := c.do("upload", http.MethodPost, "/v1/blobs", a.Body, "application/octet-stream")
	if err != nil {
		return err
	}
	var r struct {
		CID string `json:"cid"`
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return err
	}
	if r.CID != a.CID {
		return fmt.Errorf("upload of %s: cid %s, want %s", a.ID, r.CID, a.CID)
	}
	return nil
}

// readBlob fetches an off-chain body.
func (c *client) readBlob(cid string) ([]byte, error) {
	return c.do("blob", http.MethodGet, "/v1/blobs/"+cid, nil, "")
}

// verifyBlob checks that a body read back hashes to its content id.
func verifyBlob(cid string, body []byte) error {
	got, err := blobstore.ComputeCID(body, blobstore.DefaultChunkSize)
	if err != nil {
		return err
	}
	if string(got) != cid {
		return fmt.Errorf("blob %s: body hashes to %s", cid, got)
	}
	return nil
}

// searchPage is the /v1/search reply.
type searchPage struct {
	Total   int `json:"total"`
	Results []struct {
		ID string `json:"id"`
	} `json:"results"`
}

func (c *client) search(q string, limit int) (searchPage, error) {
	var p searchPage
	err := c.getJSON("search", "/v1/search?q="+url.QueryEscape(q)+"&limit="+strconv.Itoa(limit), &p)
	return p, err
}

// metrics scrapes /v1/metrics.
func (c *client) metrics() (prom, error) {
	raw, err := c.do("metrics", http.MethodGet, "/v1/metrics", nil, "")
	if err != nil {
		return nil, err
	}
	return parseProm(raw)
}

// healthz is the /v1/healthz reply.
type healthz struct {
	Height         uint64 `json:"height"`
	MempoolDepth   int    `json:"mempoolDepth"`
	IndexerLagDocs int    `json:"indexerLagDocs"`
}

func (c *client) healthz() (healthz, error) {
	var h healthz
	err := c.getJSON("healthz", "/v1/healthz", &h)
	return h, err
}

// waitReady polls /v1/healthz until it answers.
func (c *client) waitReady(timeout time.Duration) (healthz, error) {
	deadline := time.Now().Add(timeout)
	for {
		h, err := c.healthz()
		if err == nil {
			return h, nil
		}
		if time.Now().After(deadline) {
			return h, fmt.Errorf("%s not ready: %w", c.base, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
