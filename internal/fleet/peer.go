package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strings"
	"time"

	"smtdram/internal/server"
	"smtdram/internal/store"
)

// maxPeerEntryBytes bounds one fetched entry (results are small JSON; figure
// outputs a few hundred KB at most).
const maxPeerEntryBytes = 64 << 20

// maxPeerErrorBytes bounds how much of a non-200 answer is read (and
// discarded) to return its connection to the pool.
const maxPeerErrorBytes = 4 << 10

// PeerClient implements server.PeerFetcher over HTTP: on a local miss it
// walks the ring's owner list for the key — excluding itself — and asks each
// candidate's /v1/peer/result for the entry, verifying the store framing's
// CRC before trusting a byte. The candidates are exactly the nodes that own
// (or owned, before a membership change) the key, so one or two round trips
// find any copy the fleet holds.
type PeerClient struct {
	self   string
	ring   *Ring
	urls   map[string]string // node id -> base URL
	http   *http.Client
	maxAsk int
	log    *slog.Logger
}

// NewPeerClient builds the peering side of one worker. self is this node's
// id; peers maps every other node id to its base URL. vnodes must match the
// coordinator's ring so both sides agree on ownership.
func NewPeerClient(self string, peers map[string]string, vnodes int, timeout time.Duration, log *slog.Logger) *PeerClient {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	nodes := []string{self}
	urls := map[string]string{}
	for id, u := range peers {
		nodes = append(nodes, id)
		urls[id] = strings.TrimRight(u, "/")
	}
	return &PeerClient{
		self:   self,
		ring:   NewRing(vnodes, nodes...),
		urls:   urls,
		http:   &http.Client{Timeout: timeout},
		maxAsk: 2,
		log:    log,
	}
}

// Fetch implements server.PeerFetcher. A clean miss everywhere returns
// server.ErrPeerMiss; a candidate whose bytes fail CRC verification is
// skipped (never served) and, if no other candidate hits, the error wraps
// server.ErrPeerCorrupt so the daemon counts it before recomputing.
func (p *PeerClient) Fetch(ctx context.Context, key string) (payload, meta []byte, err error) {
	var corrupt error
	asked := 0
	for _, node := range p.ring.Owners(key, p.ring.Len()) {
		if node == p.self || asked >= p.maxAsk {
			continue
		}
		base := p.urls[node]
		if base == "" {
			continue
		}
		asked++
		payload, meta, err := p.fetchFrom(ctx, base, key)
		switch {
		case err == nil:
			return payload, meta, nil
		case errors.Is(err, server.ErrPeerCorrupt):
			corrupt = err
			p.log.Warn("peer served a corrupt entry; skipping", "peer", node, "key", key, "err", err)
		}
	}
	if corrupt != nil {
		return nil, nil, corrupt
	}
	return nil, nil, server.ErrPeerMiss
}

// fetchFrom asks one peer for the key and verifies the framed entry.
func (p *PeerClient) fetchFrom(ctx context.Context, base, key string) (payload, meta []byte, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		base+"/v1/peer/result?key="+url.QueryEscape(key), nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := p.http.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Drain the short error body so the transport keeps the connection:
		// a body closed unread costs a fresh dial on every miss.
		_, _ = io.CopyN(io.Discard, resp.Body, maxPeerErrorBytes)
		if resp.StatusCode == http.StatusNotFound {
			return nil, nil, server.ErrPeerMiss
		}
		return nil, nil, fmt.Errorf("peer returned %d", resp.StatusCode)
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerEntryBytes))
	if err != nil {
		return nil, nil, err
	}
	gotKey, meta, payload, err := store.DecodeEntry(b)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", server.ErrPeerCorrupt, err)
	}
	if gotKey != key {
		return nil, nil, fmt.Errorf("%w: entry is for key %q", server.ErrPeerCorrupt, gotKey)
	}
	return payload, meta, nil
}
