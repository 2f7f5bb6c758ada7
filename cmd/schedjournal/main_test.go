package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dispatch"
	"repro/internal/journal"
	_ "repro/internal/online" // registers ReplanDER
	"repro/internal/power"
	"repro/internal/task"
)

// writeSession journals one session under dataDir the way schedd does:
// nbatch two-task arrival batches one time unit apart, each re-planned
// synchronously, then an optional finish.
func writeSession(t *testing.T, dataDir, id string, nbatch int, finish bool) {
	t.Helper()
	st, err := journal.Open(dataDir, journal.Options{Fsync: journal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	w, err := st.Writer(id)
	if err != nil {
		t.Fatal(err)
	}
	s, err := dispatch.New(dispatch.Config{
		Cores: 2, Model: power.Unit(3, 0.05), SkipRatio: true, Journal: w, CheckpointEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < nbatch; i++ {
		at := float64(i)
		batch := task.Set{
			{ID: 0, Release: at, Work: 0.4, Deadline: at + 2.5},
			{ID: 1, Release: at + 0.1, Work: 0.6, Deadline: at + 3.5},
		}
		if _, _, err := s.Arrive(ctx, at, batch); err != nil {
			t.Fatal(err)
		}
	}
	if finish {
		if _, err := s.Finish(ctx); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// run calls a command with stdout captured and returns its exit code
// and output.
func run(t *testing.T, cmd func([]string) int, args ...string) (int, string) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	orig := os.Stdout
	os.Stdout = f
	code := cmd(args)
	os.Stdout = orig
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out)
}

func readDump(t *testing.T, path string) dumpFile {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var df dumpFile
	if err := json.Unmarshal(raw, &df); err != nil {
		t.Fatal(err)
	}
	return df
}

func writeDump(t *testing.T, path string, df dumpFile) {
	t.Helper()
	raw, err := json.Marshal(df)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestDumpVerifyCompact(t *testing.T) {
	dir, tmp := t.TempDir(), t.TempDir()
	writeSession(t, dir, "live", 6, false)
	writeSession(t, dir, "done", 3, true)

	base := filepath.Join(tmp, "base.json")
	if code, _ := run(t, cmdDump, "-data-dir", dir, "-o", base); code != 0 {
		t.Fatalf("dump exit %d", code)
	}
	df := readDump(t, base)
	if len(df.Sessions) != 2 || df.Sessions[0].ID != "done" || df.Sessions[1].ID != "live" {
		t.Fatalf("dump sessions %+v, want done and live", df.Sessions)
	}
	done, live := df.Sessions[0], df.Sessions[1]
	if !done.Finished || live.Finished || live.Snapshot == nil || len(live.Snapshot.Committed) == 0 {
		t.Fatalf("dump: done finished=%v, live finished=%v with snapshot %+v", done.Finished, live.Finished, live.Snapshot)
	}
	if live.Snapshot.Events != nil {
		t.Fatal("dump kept events without -events")
	}

	code, out := run(t, cmdDump, "-data-dir", dir, "-session", "live", "-events")
	var one dumpFile
	if err := json.Unmarshal([]byte(out), &one); code != 0 || err != nil {
		t.Fatalf("dump to stdout: exit %d, %v", code, err)
	}
	if len(one.Sessions) != 1 || one.Sessions[0].Snapshot == nil || len(one.Sessions[0].Snapshot.Events) == 0 {
		t.Fatalf("-session live -events: %+v", one.Sessions)
	}

	if code, out := run(t, cmdVerify, "-data-dir", dir, "-baseline", base); code != 0 || !strings.Contains(out, "2 ok") {
		t.Fatalf("verify against own dump: exit %d\n%s", code, out)
	}

	code, out = run(t, cmdCompact, "-data-dir", dir)
	if code != 0 || !strings.Contains(out, "1 compacted, 1 skipped") {
		t.Fatalf("compact: exit %d\n%s", code, out)
	}
	after := filepath.Join(tmp, "after.json")
	if code, _ := run(t, cmdDump, "-data-dir", dir, "-o", after); code != 0 {
		t.Fatalf("dump after compact: exit %d", code)
	}
	if c := readDump(t, after).Sessions[1]; c.Segments != 1 || c.Records != 1 {
		t.Fatalf("compacted log has %d segments / %d records, want 1 / 1", c.Segments, c.Records)
	}
	// Compaction keeps the committed prefix: the old baseline still holds.
	if code, out := run(t, cmdVerify, "-data-dir", dir, "-baseline", base); code != 0 {
		t.Fatalf("verify after compact: exit %d\n%s", code, out)
	}
	if code, out := run(t, cmdCompact, "-data-dir", dir, "-session", "live"); code != 0 || !strings.Contains(out, "already compact") {
		t.Fatalf("second compact: exit %d\n%s", code, out)
	}

	// A finished log that recovery collected is not a failure.
	if err := os.RemoveAll(sessionPath(dir, "done")); err != nil {
		t.Fatal(err)
	}
	if code, out := run(t, cmdVerify, "-data-dir", dir, "-baseline", base); code != 0 || !strings.Contains(out, "1 collected") {
		t.Fatalf("verify with a collected log: exit %d\n%s", code, out)
	}
}

// TestVerifyFailsWhenCommittedPrefixLost verifies the journal against
// baselines whose committed prefix the journal does not keep.
func TestVerifyFailsWhenCommittedPrefixLost(t *testing.T) {
	dir, tmp := t.TempDir(), t.TempDir()
	writeSession(t, dir, "live", 6, false)
	base := filepath.Join(tmp, "base.json")
	if code, _ := run(t, cmdDump, "-data-dir", dir, "-o", base); code != 0 {
		t.Fatalf("dump exit %d", code)
	}
	for _, tc := range []struct {
		name, want string
		edit       func(s *dispatch.Snapshot)
	}{
		{"longer", "committed prefix shrank", func(s *dispatch.Snapshot) {
			s.Committed = append(s.Committed, s.Committed[len(s.Committed)-1])
		}},
		{"diverged", "committed segment 0 diverged", func(s *dispatch.Snapshot) {
			s.Committed[0].End += 0.25
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			df := readDump(t, base)
			tc.edit(df.Sessions[0].Snapshot)
			bad := filepath.Join(tmp, tc.name+".json")
			writeDump(t, bad, df)
			code, out := run(t, cmdVerify, "-data-dir", dir, "-baseline", bad)
			if code != 1 || !strings.Contains(out, "FAIL") || !strings.Contains(out, tc.want) {
				t.Fatalf("exit %d, want 1 with %q:\n%s", code, tc.want, out)
			}
		})
	}
}

func TestVerifySessionRegressions(t *testing.T) {
	base := func() sessionDump {
		return sessionDump{ID: "s", Snapshot: &dispatch.Snapshot{
			Now: 4, Seq: 9, Commits: 3, Replans: 5, ShedCount: 1,
			Tasks: []dispatch.TaskState{{Release: 0, Work: 1, Deadline: 3, Remaining: 0.5}},
		}}
	}
	for _, tc := range []struct {
		want string
		edit func(b, cur *sessionDump)
	}{
		{"", func(b, cur *sessionDump) {}},
		{"replay failed", func(b, cur *sessionDump) { cur.Error = "bad crc" }},
		{"replays to nothing", func(b, cur *sessionDump) { cur.Snapshot = nil }},
		{"finish record lost", func(b, cur *sessionDump) { b.Finished = true }},
		{"seq went backwards", func(b, cur *sessionDump) { cur.Snapshot.Seq-- }},
		{"clock went backwards", func(b, cur *sessionDump) { cur.Snapshot.Now-- }},
		{"commit count", func(b, cur *sessionDump) { cur.Snapshot.Commits-- }},
		{"replan count", func(b, cur *sessionDump) { cur.Snapshot.Replans-- }},
		{"shed count", func(b, cur *sessionDump) { cur.Snapshot.ShedCount-- }},
		{"task table shrank", func(b, cur *sessionDump) { cur.Snapshot.Tasks = nil }},
		{"parameters changed", func(b, cur *sessionDump) { cur.Snapshot.Tasks[0].Work = 2 }},
		{"remaining work grew", func(b, cur *sessionDump) { cur.Snapshot.Tasks[0].Remaining = 1 }},
		{"un-completed", func(b, cur *sessionDump) { b.Snapshot.Tasks[0].Done = true }},
	} {
		b, cur := base(), base()
		tc.edit(&b, &cur)
		got := verifySession(b, cur)
		if (tc.want == "") != (got == "") || !strings.Contains(got, tc.want) {
			t.Errorf("verifySession = %q, want %q", got, tc.want)
		}
	}
}

func TestUsageAndInputErrors(t *testing.T) {
	tmp := t.TempDir()
	garbage := filepath.Join(tmp, "garbage.json")
	if err := os.WriteFile(garbage, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cmd  func([]string) int
		args []string
		want int
	}{
		{"dump without dir", cmdDump, nil, 2},
		{"verify without baseline", cmdVerify, []string{"-data-dir", tmp}, 2},
		{"compact without dir", cmdCompact, nil, 2},
		{"missing baseline", cmdVerify, []string{"-data-dir", tmp, "-baseline", filepath.Join(tmp, "none.json")}, 1},
		{"corrupt baseline", cmdVerify, []string{"-data-dir", tmp, "-baseline", garbage}, 1},
		{"dump of an empty dir", cmdDump, []string{"-data-dir", tmp, "-o", filepath.Join(tmp, "empty.json")}, 0},
	} {
		if code, _ := run(t, tc.cmd, tc.args...); code != tc.want {
			t.Errorf("%s: exit %d, want %d", tc.name, code, tc.want)
		}
	}
}
