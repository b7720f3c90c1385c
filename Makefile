# Developer entry points. `make tier1` is the gate every change must pass:
# full build, vet, and the race-enabled test suite.

GO ?= go

.PHONY: tier1 build vet test race race-hot chaos e2e loadgen-smoke bench-reopen bench-train

tier1: build vet race-hot chaos loadgen-smoke e2e race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fast-failing race pass over the concurrency-heavy packages (shared
# instrument handles, gossip fan-out, blob retrieval, concurrent
# checkpoint snapshot and restore) before the full suite runs.
race-hot:
	$(GO) test -race -count=1 ./internal/telemetry/... ./internal/commitbus/... ./internal/gossip/... ./internal/blobstore/... ./internal/ledger ./internal/consensus ./internal/simnet ./internal/chaos ./internal/transport/... ./internal/admission ./internal/ingest ./internal/search ./internal/contract ./internal/store ./internal/supplychain ./internal/platform

# Open-loop load generator smoke: a short low-rate run against an
# in-process node with admission control on must finish with zero
# failed, shed, or client-dropped requests.
loadgen-smoke:
	$(GO) test -count=1 -run TestLoadgenSmoke ./internal/loadgen

# Multi-process cluster test: builds the daemon, boots 4 validators over
# loopback TCP, drives transactions through the HTTP API, and kill -9s a
# node to check WAL recovery + consensus sync (bounded ~30s).
e2e:
	$(GO) test -count=1 -timeout 240s ./internal/e2e

# Deterministic chaos scenarios (fixed seeds baked into the tests):
# rolling restarts, partition+heal, crash-during-commit, corrupt links,
# churn, and the determinism fingerprint itself.
chaos:
	$(GO) test -count=1 -run 'TestScenario|TestChaosDeterministicFingerprint' ./internal/chaos

# Reopen cost: full replay vs checkpoint restore (EXPERIMENTS.md E15b).
bench-reopen:
	$(GO) test -run NONE -bench 'BenchmarkOpen(Replay|Checkpoint)' -benchtime 5x .

# Boot cost of the AI text classifier: logistic-regression training on
# the 1,000-statement corpus every node trains on at startup.
bench-train:
	$(GO) test -run NONE -bench BenchmarkLogisticRegressionTrain -benchtime 20x ./internal/aidetect
