package journal

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := ReadManifest(dir); err != nil || ok {
		t.Fatalf("empty dir: ok=%v err=%v, want absent", ok, err)
	}
	if err := WriteManifest(dir, Manifest{Shards: 4}); err != nil {
		t.Fatal(err)
	}
	m, ok, err := ReadManifest(dir)
	if err != nil || !ok {
		t.Fatalf("ReadManifest: ok=%v err=%v", ok, err)
	}
	if m.Shards != 4 || m.Version != ManifestVersion {
		t.Fatalf("round trip = %+v", m)
	}
}

func TestManifestRejectsCorrupt(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadManifest(dir); err == nil {
		t.Fatal("corrupt manifest read succeeded")
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte(`{"version":1,"shards":0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadManifest(dir); err == nil {
		t.Fatal("zero-shard manifest read succeeded")
	}
}

// TestManifestIgnoredByJournal pins that a manifest in the journal
// directory does not disturb segment or snapshot scanning.
func TestManifestIgnoredByJournal(t *testing.T) {
	dir := t.TempDir()
	if err := WriteManifest(dir, Manifest{Shards: 1}); err != nil {
		t.Fatal(err)
	}
	j, rec, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Fresh {
		t.Fatalf("fresh dir with manifest recovered as non-fresh: %+v", rec)
	}
	if _, err := j.Append(&Record{Kind: KindWorkerRegistered, Worker: "w", Machine: 0, Power: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, rec2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rec2.LastLSN != 1 || rec2.Records != 1 || len(recovered(t, rec2, 1).state().Workers) != 1 {
		t.Fatalf("record lost across reopen with manifest present: %+v", rec2)
	}
	if got := ShardDirName(3); !strings.HasPrefix(got, "shard-") || got != "shard-0003" {
		t.Fatalf("ShardDirName(3) = %q", got)
	}
}
