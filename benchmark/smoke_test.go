package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
	"time"

	"metablocking/internal/server"
	"metablocking/internal/shard"
)

// testBin holds cmd/serve and cmd/metablock, built once for the package.
var testBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "benchmark-test-")
	if err != nil {
		panic(err)
	}
	testBin = filepath.Join(dir, "bin")
	if err := buildBinaries(context.Background(), testBin); err != nil {
		os.RemoveAll(dir)
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestSmokeAllWorkloads runs every workload end to end with the real
// binaries and then traced, at smoke size, and requires what the driver
// requires of a full run: every declared metric present, nothing failed,
// end-to-end values non-zero, and nothing left behind.
func TestSmokeAllWorkloads(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, trace := range []bool{false, true} {
		tmp := t.TempDir()
		out := filepath.Join(tmp, "result.json")
		code, err := run(context.Background(), options{
			workload: "all", seed: 1, seconds: 1, trace: trace, smoke: true,
			out: out, binDir: testBin, tmpParent: tmp,
		})
		if err != nil || code != 0 {
			t.Fatalf("trace=%v: exit %d: %v", trace, code, err)
		}
		report, err := readReport(out)
		if err != nil {
			t.Fatal(err)
		}
		if len(report.Workloads) != 6 {
			t.Fatalf("trace=%v: %d workloads ran, want 6", trace, len(report.Workloads))
		}
		want := spec.EndToEnd
		if trace {
			want = spec.PerLayer
		}
		for _, wr := range report.Workloads {
			if !wr.Correct || wr.Failed != 0 || wr.Attempted < 1 {
				t.Errorf("trace=%v %s: correct=%v attempted=%d failed=%d notes=%v",
					trace, wr.Workload, wr.Correct, wr.Attempted, wr.Failed, wr.Notes)
			}
			if len(wr.Metrics) != len(want) {
				t.Errorf("trace=%v %s: %d metrics reported, %d declared", trace, wr.Workload, len(wr.Metrics), len(want))
			}
			for _, def := range want {
				mv, ok := wr.Metrics[def.Name]
				if !ok || mv.Unit != def.Unit {
					t.Errorf("trace=%v %s: metric %s missing or in unit %q, want %q", trace, wr.Workload, def.Name, mv.Unit, def.Unit)
				}
				if !trace && mv.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v; the driver needs it non-zero", wr.Workload, def.Name, mv.Value)
				}
			}
			if trace {
				for _, name := range []string{"trace.sum_over_e2e", "trace.e2e_ratio"} {
					if wr.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %v", wr.Workload, name, wr.Metrics[name].Value)
					}
				}
			}
		}
		// The result file is the only thing a run may leave in its scratch.
		left, _ := filepath.Glob(filepath.Join(tmp, "*"))
		if len(left) != 1 || left[0] != out {
			t.Errorf("trace=%v: run left %v behind", trace, left)
		}
	}
}

// TestTracedPassesRunTheBinarysConfiguration holds the hand-written
// copies the traced passes need — serverConfig for L0 and L1, newL2Group
// for L2 — to what cmd/serve itself reports at /v1/admin/status when it
// is started with the workload's flags on the workload's preload. If a
// default of cmd/serve or the disk start-up in internal/server drifts,
// the in-process passes would measure another configuration than the
// binary, and no ratio of latencies is steady enough to show that.
func TestTracedPassesRunTheBinarysConfiguration(t *testing.T) {
	for _, w := range workloads(true) {
		if !w.serve {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			in, err := buildServeInputs(w, 1, dir)
			if err != nil {
				t.Fatal(err)
			}
			diskDir := func(name string) string {
				if !w.disk {
					return ""
				}
				return filepath.Join(dir, name)
			}

			child, err := startServe(context.Background(), filepath.Join(testBin, "serve"),
				filepath.Join(dir, "serve.log"), serveArgs(w, in.snapshotPath, diskDir("index.child"))...)
			if err != nil {
				t.Fatal(err)
			}
			defer child.stop(syscall.SIGKILL)
			body, err := getBody(child.base + "/v1/admin/status")
			if err != nil {
				t.Fatal(err)
			}
			var binary server.Status
			if err := json.Unmarshal(body, &binary); err != nil {
				t.Fatal(err)
			}

			srv, err := server.New(serverConfig(w, diskDir("index.inproc")))
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			if _, err := srv.ReloadFile(in.snapshotPath); err != nil {
				t.Fatal(err)
			}
			inproc := srv.Status()
			binary.Config.DiskDir, inproc.Config.DiskDir = "", ""
			if binary.Config != inproc.Config {
				t.Errorf("configuration\n binary  %+v\n harness %+v", binary.Config, inproc.Config)
			}
			if !reflect.DeepEqual(binary.Tiers, inproc.Tiers) {
				t.Errorf("tiers\n binary  %+v\n harness %+v", binary.Tiers, inproc.Tiers)
			}
			if binary.Profiles != w.preload || inproc.Profiles != w.preload {
				t.Errorf("binary holds %d profiles, harness %d, preload is %d", binary.Profiles, inproc.Profiles, w.preload)
			}
			sameShards(t, "server.New", binary.Shards, inproc.Shards)

			group, err := newL2Group(w, in.snapshot, diskDir("index.l2"), newRecorder())
			if err != nil {
				t.Fatal(err)
			}
			if group == nil {
				if len(binary.Shards) > 1 || w.disk {
					t.Fatal("the binary serves through a coordinator, the L2 pass through a single index")
				}
				return
			}
			defer group.Close()
			cfg := group.Config()
			// Memory shards have no memtable; the binary's budget is inert there.
			if cfg.QueueDepth != binary.Config.ShardQueueDepth || (w.disk && cfg.MemtableBudget != binary.Config.MemtableBudget) {
				t.Errorf("L2 coordinator: queue depth %d, memtable budget %d; binary: %d, %d",
					cfg.QueueDepth, cfg.MemtableBudget, binary.Config.ShardQueueDepth, binary.Config.MemtableBudget)
			}
			sameShards(t, "newL2Group", binary.Shards, group.Stats())
		})
	}
}

// sameShards requires two freshly preloaded coordinators to hold the same
// thing shard by shard: profiles, blocks and, on disk, sealed segments
// and checkpoint.
func sameShards(t *testing.T, what string, binary, harness []shard.Stat) {
	t.Helper()
	if len(binary) != len(harness) {
		t.Errorf("%s: %d shards, the binary reports %d", what, len(harness), len(binary))
		return
	}
	for k := range binary {
		b, h := binary[k], harness[k]
		if b.Profiles != h.Profiles || b.Blocks != h.Blocks || (b.Disk == nil) != (h.Disk == nil) {
			t.Errorf("%s shard %d: %+v, the binary reports %+v", what, k, h, b)
			continue
		}
		if b.Disk != nil && (b.Disk.Segments != h.Disk.Segments || b.Disk.Checkpoint != h.Disk.Checkpoint) {
			t.Errorf("%s shard %d on disk: %+v, the binary reports %+v", what, k, *h.Disk, *b.Disk)
		}
	}
}

// TestResultLineShape pins the driver's contract for the last line.
func TestResultLineShape(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricDef{{Name: "setup_s", Unit: "s"}}}
	b, err := json.Marshal(spec.result(map[string]float64{"setup_s": 0.5}, spec.EndToEnd, 10, 0))
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}`
	if string(b) != want {
		t.Errorf("result line\n got %s\nwant %s", b, want)
	}
}

// TestInterruptReapsChild cancels the context a server was started under,
// as SIGINT does, and requires the child to be gone and reaped.
func TestInterruptReapsChild(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	srv, err := startServe(ctx, filepath.Join(testBin, "serve"), filepath.Join(t.TempDir(), "serve.log"))
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case <-srv.done:
	case <-time.After(10 * time.Second):
		srv.stop(syscall.SIGKILL)
		t.Fatal("child still running 10s after its context was canceled")
	}
	if err := srv.cmd.Process.Signal(syscall.Signal(0)); err == nil {
		t.Error("child process still signalable after being reaped")
	}
}
