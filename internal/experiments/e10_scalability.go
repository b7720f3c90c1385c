package experiments

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/consensus"
	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/simnet"
)

// E10Config sizes the scalability experiment.
type E10Config struct {
	ValidatorCounts []int
	Blocks          uint64
	TxsPerBlock     int
	Seed            int64
}

// DefaultE10 returns the standard configuration.
func DefaultE10() E10Config {
	return E10Config{
		ValidatorCounts: []int{4, 8, 16, 32},
		Blocks:          5,
		TxsPerBlock:     20,
		Seed:            10,
	}
}

// RunE10Consensus measures BFT vs PoA block latency as the validator set
// grows — the paper's "high performance blockchain network" requirement
// and the cost of Byzantine tolerance.
func RunE10Consensus(cfg E10Config) (*Table, error) {
	t := &Table{
		ID:     "E10a",
		Title:  "Consensus scalability: virtual commit latency vs validators",
		Claim:  "a scalable blockchain network is feasible; BFT pays per-validator cost PoA avoids",
		Header: []string{"validators", "bft_ms_per_block", "poa_ms_per_block", "bft_msgs_per_block"},
	}
	for _, n := range cfg.ValidatorCounts {
		bftMs, bftMsgs, err := bftLatency(n, cfg)
		if err != nil {
			return nil, err
		}
		poaMs, err := poaLatency(n, cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(d(n), f1(bftMs), f1(poaMs), d(bftMsgs))
	}
	return t, nil
}

func bftLatency(n int, cfg E10Config) (float64, int, error) {
	c, err := consensus.NewCluster(n, cfg.Seed, consensus.DefaultTimeouts())
	if err != nil {
		return 0, 0, err
	}
	client := keys.FromSeed([]byte("e10-client"))
	for i := 0; i < int(cfg.Blocks)*cfg.TxsPerBlock; i++ {
		tx, err := ledger.NewTx(client, uint64(i), "k.m", []byte{byte(i)})
		if err != nil {
			return 0, 0, err
		}
		if err := c.SubmitAll(tx); err != nil {
			return 0, 0, err
		}
	}
	c.Start()
	elapsed := c.RunUntilHeight(cfg.Blocks, 10*time.Minute)
	if c.MinHeight() < cfg.Blocks {
		return 0, 0, fmt.Errorf("e10: bft n=%d stalled at height %d", n, c.MinHeight())
	}
	msgs := c.Net.Stats().Sent / int(cfg.Blocks)
	return float64(elapsed.Milliseconds()) / float64(cfg.Blocks), msgs, nil
}

func poaLatency(n int, cfg E10Config) (float64, error) {
	net := simnet.New(cfg.Seed)
	kps := make([]*keys.KeyPair, n)
	vals := make([]consensus.Validator, n)
	for i := range kps {
		kps[i] = keys.FromSeed([]byte("validator-" + strconv.Itoa(i)))
		vals[i] = consensus.Validator{
			ID: simnet.NodeID("v" + strconv.Itoa(i)), Addr: kps[i].Address(),
			Pub: kps[i].Public(), Power: 1,
		}
	}
	set, err := consensus.NewValidatorSet(vals)
	if err != nil {
		return 0, err
	}
	apps := make([]*consensus.ChainApp, n)
	nodes := make([]*consensus.PoANode, n)
	for i := 0; i < n; i++ {
		apps[i] = &consensus.ChainApp{Chain: ledger.NewMemChain(), Proposer: kps[i].Address(), AllowEmpty: true}
		apps[i].Pool = ledger.NewMempool(apps[i].Chain, 0)
		nodes[i] = consensus.NewPoANode(vals[i].ID, kps[i], set, net, apps[i], 50*time.Millisecond)
		if err := nodes[i].Bind(); err != nil {
			return 0, err
		}
	}
	for _, nd := range nodes {
		nd.Start()
	}
	start := net.Now()
	net.RunWhile(func() bool {
		for _, app := range apps {
			if app.Chain.Height() < cfg.Blocks {
				return net.Now()-start < 10*time.Minute
			}
		}
		return false
	})
	for _, app := range apps {
		if app.Chain.Height() < cfg.Blocks {
			return 0, fmt.Errorf("e10: poa n=%d stalled", n)
		}
	}
	return float64((net.Now() - start).Milliseconds()) / float64(cfg.Blocks), nil
}
