package harness

import (
	"testing"

	"hoop/internal/crashtest"
	"hoop/internal/engine"
	"hoop/internal/workload"
)

// TestRegistryRoundTrip builds every registered workload by name and runs
// it on all seven schemes through RunMatrixOn: every cell must commit
// exactly the requested transactions. This is the registry's contract
// with the matrix — anything Register'd is matrix-safe, including the
// scan ops of YCSB-E and the abort-injecting read-modify-writes of YCSB-F.
func TestRegistryRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every registered workload on every scheme")
	}
	const txs = 60
	for _, name := range workload.Registered() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			wl, err := workload.Build(name, workload.Options{Keys: 256})
			if err != nil {
				t.Fatal(err)
			}
			m, err := RunMatrixOn(Options{Seed: 5, Workers: 1, TxsPerCell: txs}, []workload.Workload{wl}, engine.AllSchemes)
			if err != nil {
				t.Fatal(err)
			}
			for _, scheme := range engine.AllSchemes {
				if got := m.Cells[wl.Name][scheme].Txs; got != txs {
					t.Errorf("%s: committed %d transactions, want %d", scheme, got, txs)
				}
			}
		})
	}
}

// TestRegistrySmokeYCSBEF is the crash smoke the ISSUE calls out by name:
// YCSB-E (range scans) and YCSB-F (read-modify-write with injected aborts)
// survive a mid-stream crash on every persistent scheme. The full
// per-scheme coverage lives in cmd/hoopcrash -suite ycsb.
func TestRegistrySmokeYCSBEF(t *testing.T) {
	if testing.Short() {
		t.Skip("crash+recover on every scheme")
	}
	for _, name := range []string{"ycsb-e", "ycsb-f"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			wl := workload.MustBuild(name, workload.Options{Keys: 256})
			for _, scheme := range engine.AllSchemes {
				if scheme == engine.SchemeNative {
					continue // no persistence guarantee to verify
				}
				if err := crashtest.Smoke(scheme, wl, 5, 300); err != nil {
					t.Error(err)
				}
			}
		})
	}
}
