package sweep

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func execOrFatal(t *testing.T, sc Scenario) Record {
	t.Helper()
	rec, err := Execute(sc, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestStorePersistAndReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	s, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := execOrFatal(t, baseSpec())
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 1 || s2.Dropped() != 0 {
		t.Fatalf("reloaded store: len=%d dropped=%d", s2.Len(), s2.Dropped())
	}
	got, ok := s2.Get(rec.Hash)
	if !ok {
		t.Fatal("record missing after reload")
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("reloaded record differs:\n %+v\n %+v", got, rec)
	}
}

// TestStoreResumesPastTornLine simulates an interrupt mid-append: the
// torn final line outdates the sidecar, so the open rescans, drops the
// torn line, and the next Put starts a fresh line: nothing else is lost.
func TestStoreResumesPastTornLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	s, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	recA := execOrFatal(t, baseSpec())
	if err := s.Put(recA); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate a write cut off mid-record.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"hash":"deadbeef","spec":{"fam`)
	f.Close()

	s2, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 || s2.Dropped() != 1 {
		t.Fatalf("after torn line: len=%d dropped=%d", s2.Len(), s2.Dropped())
	}
	scB := baseSpec()
	scB.ChannelSeed++
	recB := execOrFatal(t, scB)
	if err := s2.Put(recB); err != nil {
		t.Fatal(err)
	}
	s2.Close()

	s3, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Len() != 2 {
		t.Fatalf("after resume: len=%d, want 2 (dropped=%d)", s3.Len(), s3.Dropped())
	}
	for _, want := range []Record{recA, recB} {
		if got, ok := s3.Get(want.Hash); !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("record %s lost or changed across torn-line resume", want.Hash)
		}
	}
}

// TestStoreDropsTamperedRecords: a line whose spec was edited after the
// fact (hash mismatch) must not serve cache hits. The line is written
// into the file directly, as an edit would be: through Put, the sidecar
// would index it and an index-served open would count a record that Get
// refuses.
func TestStoreDropsTamperedRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	rec := execOrFatal(t, baseSpec())
	rec.Hash = "0123456789abcdef0123456789abcdef" // wrong address
	line, err := EncodeLine(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, line, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 0 || s2.Dropped() != 1 {
		t.Fatalf("tampered record survived reload: len=%d dropped=%d", s2.Len(), s2.Dropped())
	}
}

func TestMemStore(t *testing.T) {
	s := NewMemStore()
	rec := execOrFatal(t, baseSpec())
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(rec.Hash); !ok || !reflect.DeepEqual(got, rec) {
		t.Fatal("memory store lost the record")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
