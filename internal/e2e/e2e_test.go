package e2e

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/ranking"
	"repro/internal/supplychain"
)

// TestClusterConvergence is the end-to-end acceptance scenario: four
// trustnewsd processes reach consensus over loopback TCP, transactions
// submitted to any node's HTTP API commit on every node, and a validator
// that is kill -9'd rejoins from its WAL and catches up with the chain
// that moved on without it.
func TestClusterConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e scenario; skipped in -short mode")
	}
	c := newCluster(t, 4)
	for i := range c.nodes {
		c.start(i)
	}
	c.waitFor("all nodes past height 3", 30*time.Second, func() bool {
		for i := range c.nodes {
			if c.height(i) < 3 {
				return false
			}
		}
		return true
	})

	// Client-side signers. The authority seed is the platform default, so
	// mints are accepted; everyone else is a fresh account.
	authority := newAccount("platform-authority")
	publisher := newAccount("e2e-publisher")
	voterA := newAccount("e2e-voter-a")
	voterB := newAccount("e2e-voter-b")

	// Fund the voters (mints are authority-signed), via node 0.
	for _, to := range []*account{voterA, voterB} {
		payload, err := ranking.MintPayload(to.addr(), 1000)
		if err != nil {
			t.Fatal(err)
		}
		c.submitTx(0, authority.tx(t, "rank.mint", payload))
	}

	// Publish a news item via node 1 — the mempool relay must carry it to
	// whichever validator proposes next.
	pub, err := supplychain.PublishPayload("e2e-item-1", corpus.Topic("politics"), "Reservoir levels rose 4% after March storms.", nil, corpus.Op(""))
	if err != nil {
		t.Fatal(err)
	}
	c.submitTx(1, publisher.tx(t, "news.publish", pub))
	c.waitFor("item e2e-item-1 indexed on every node", 30*time.Second, func() bool {
		for i := range c.nodes {
			if code, err := c.getJSON(i, "/v1/items/e2e-item-1", nil); err != nil || code != http.StatusOK {
				return false
			}
		}
		return true
	})

	// Stake votes through two different nodes.
	voteA, err := ranking.VotePayload("e2e-item-1", true, 100)
	if err != nil {
		t.Fatal(err)
	}
	c.submitTx(2, voterA.tx(t, "rank.vote", voteA))
	voteB, err := ranking.VotePayload("e2e-item-1", false, 50)
	if err != nil {
		t.Fatal(err)
	}
	c.submitTx(3, voterB.tx(t, "rank.vote", voteB))
	c.waitFor("stakes deducted on node 0", 30*time.Second, func() bool {
		return c.balance(0, voterA) == 900 && c.balance(0, voterB) == 950
	})

	// Chain "height" counts blocks; the newest common block sits at
	// height-1 (block heights are zero-based).
	c.assertConverged(c.commonHeight()-1, 0, 1, 2, 3)

	// Kill -9 validator 3: no graceful shutdown, no final checkpoint. The
	// remaining three validators are a quorum and the chain keeps moving.
	killedAt := c.height(3)
	c.kill9(3)
	pub2, err := supplychain.PublishPayload("e2e-item-2", corpus.Topic("health"), "Trial shows the vaccine halves transmission.", nil, corpus.Op(""))
	if err != nil {
		t.Fatal(err)
	}
	c.submitTx(0, publisher.tx(t, "news.publish", pub2))
	c.waitFor("item e2e-item-2 on surviving nodes, chain advanced", 30*time.Second, func() bool {
		for i := 0; i < 3; i++ {
			if code, err := c.getJSON(i, "/v1/items/e2e-item-2", nil); err != nil || code != http.StatusOK {
				return false
			}
			if c.height(i) < killedAt+5 {
				return false
			}
		}
		return true
	})

	// Rejoin: same data directory, same ports. The node recovers its
	// chain from the WAL, re-enters consensus behind the quorum, and the
	// sync protocol backfills what it missed.
	c.start(3)
	c.waitFor("node 3 caught up past the quorum's kill-time lead", 45*time.Second, func() bool {
		if code, err := c.getJSON(3, "/v1/items/e2e-item-2", nil); err != nil || code != http.StatusOK {
			return false
		}
		return c.height(3) >= killedAt+5
	})
	c.assertConverged(c.commonHeight()-1, 0, 1, 2, 3)
}

// balance reads an account's token balance from node i (0 on error).
func (c *cluster) balance(i int, a *account) uint64 {
	var resp struct {
		Balance uint64 `json:"balance"`
	}
	if code, err := c.getJSON(i, "/v1/accounts/"+a.addr().String(), &resp); err != nil || code != http.StatusOK {
		return 0
	}
	return resp.Balance
}

// commonHeight returns the highest height every node has reached.
func (c *cluster) commonHeight() uint64 {
	c.t.Helper()
	min := c.height(0)
	for i := 1; i < len(c.nodes); i++ {
		if h := c.height(i); h < min {
			min = h
		}
	}
	if min == 0 {
		c.t.Fatal("no common height: some node reports height 0")
	}
	return min
}

// assertConverged fails unless all listed nodes agree on the block ID at
// height h.
func (c *cluster) assertConverged(h uint64, nodes ...int) {
	c.t.Helper()
	want := ""
	for _, i := range nodes {
		id := c.blockID(i, h)
		if id == "" {
			var raw, chain json.RawMessage
			code, err := c.getJSON(i, fmt.Sprintf("/v1/blocks/%d", h), &raw)
			_, _ = c.getJSON(i, "/v1/chain", &chain)
			c.t.Fatalf("node %d has no block at height %d (status %d, err %v, body %s, chain %s)\n%s", i, h, code, err, raw, chain, c.tail(i))
		}
		if want == "" {
			want = id
			continue
		}
		if id != want {
			c.t.Fatalf("fork at height %d: node %d has %s, node %d has %s", h, nodes[0], want, i, id)
		}
	}
	c.t.Logf("converged: %d nodes agree on block %s at height %d", len(nodes), want[:16], h)
}

// TestClusterFlagValidation covers the daemon's cluster-flag error paths
// without spawning a full cluster: bad -peers and -seed-demo conflicts
// must fail fast with a clear message instead of half-joining consensus.
func TestClusterFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes; skipped in -short mode")
	}
	bin := daemonBinary(t)
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"missing peers", []string{"-node-id", "p0"}, "-peers"},
		{"malformed peers", []string{"-node-id", "p0", "-peers", "p0:127.0.0.1"}, "id=host:port"},
		{"self not listed", []string{"-node-id", "p9", "-peers", "p0=127.0.0.1:1,p1=127.0.0.1:2"}, "no entry for this node"},
		{"seed-demo conflict", []string{"-node-id", "p0", "-peers", "p0=127.0.0.1:1,p1=127.0.0.1:2", "-seed-demo"}, "incompatible with cluster mode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := runDaemon(bin, tc.args...)
			if err == nil {
				t.Fatalf("daemon accepted %v", tc.args)
			}
			if !strings.Contains(out, tc.want) {
				t.Fatalf("error output %q does not mention %q", out, tc.want)
			}
		})
	}
}

// runDaemon runs the binary until exit (the error cases exit immediately)
// with a safety timeout.
func runDaemon(bin string, args ...string) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
	return string(out), err
}
