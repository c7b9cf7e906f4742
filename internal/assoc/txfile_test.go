package assoc

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

const txFixture = `# demo transactions
1 3 5
0 1
3

5 5 1
`

func TestReadTransactions(t *testing.T) {
	d, err := ReadTransactions(strings.NewReader(txFixture), 6)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 4 {
		t.Fatalf("parsed %d transactions, want 4 (blank + comment lines skipped)", d.N())
	}
	if !d.Contains(0, 1) || !d.Contains(0, 3) || !d.Contains(0, 5) || d.Contains(0, 0) {
		t.Error("transaction 0 items wrong")
	}
	if d.Size(3) != 2 { // duplicate 5 collapses
		t.Errorf("transaction 3 has %d items, want 2", d.Size(3))
	}
	sup, err := d.Support([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if sup != 0.75 {
		t.Errorf("support({1}) = %v, want 0.75", sup)
	}
}

func TestReadTransactionsErrors(t *testing.T) {
	if _, err := ReadTransactions(strings.NewReader("1 2\n9\n"), 5); err == nil {
		t.Error("out-of-universe item accepted")
	}
	if _, err := ReadTransactions(strings.NewReader("1 two 3\n"), 5); err == nil {
		t.Error("non-numeric item accepted")
	}
	if _, err := ReadTransactions(strings.NewReader("1 -2\n"), 5); err == nil {
		t.Error("negative item accepted")
	}
	if _, err := ReadTransactions(strings.NewReader("# only comments\n\n"), 5); err == nil {
		t.Error("empty stream accepted")
	}
}

func TestReadTransactionsFileInfersUniverse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tx.dat")
	if err := os.WriteFile(path, []byte(txFixture), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := ReadTransactionsFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumItems() != 6 { // max item 5 → universe 6
		t.Errorf("inferred universe %d, want 6", d.NumItems())
	}
	if d.N() != 4 {
		t.Errorf("parsed %d transactions, want 4", d.N())
	}
}

// Inference refuses a universe past MaxInferredItems — a sparse or corrupt
// huge item ID must become a clear error, not a dense-bitmap OOM.
func TestReadTransactionsFileRefusesHugeUniverse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sparse.dat")
	if err := os.WriteFile(path, []byte("1 2\n4000000000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTransactionsFile(path, 0); err == nil {
		t.Fatal("huge inferred universe accepted")
	} else if !strings.Contains(err.Error(), "4000000000") {
		t.Errorf("error does not name the offending item ID: %v", err)
	}
	// An explicit (modest) universe still rejects the out-of-range item via
	// normal validation rather than allocating for it.
	if _, err := ReadTransactionsFile(path, 10); err == nil {
		t.Fatal("out-of-universe item accepted with explicit numItems")
	}
}

// Batch-wise ingestion must agree with per-transaction Add across the batch
// boundary.
func TestReadTransactionsBatchBoundary(t *testing.T) {
	nTx := TxFileBatch + 17
	var sb strings.Builder
	want, err := NewDataset(50)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nTx; i++ {
		items := []int{i % 50, (i * 7) % 50}
		fmtItems := make([]string, len(items))
		for j, it := range items {
			fmtItems[j] = strconv.Itoa(it)
		}
		sb.WriteString(strings.Join(fmtItems, " ") + "\n")
		if err := want.Add(items); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadTransactions(strings.NewReader(sb.String()), 50)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != want.N() {
		t.Fatalf("got %d transactions, want %d", got.N(), want.N())
	}
	for i := 0; i < nTx; i++ {
		for it := 0; it < 50; it++ {
			if got.Contains(i, it) != want.Contains(i, it) {
				t.Fatalf("transaction %d item %d differs between batch and single ingestion", i, it)
			}
		}
	}
}

// FuzzReadTransactions feeds arbitrary bytes to the transaction parser over
// a 70-item universe, whose columns span two words. Rejected input must
// return an error and no dataset; accepted input must round-trip: one row
// per non-blank, non-comment line, holding exactly that line's
// de-duplicated items as parsed independently with strings.Fields and
// strconv.Atoi. No input may panic.
func FuzzReadTransactions(f *testing.F) {
	const numItems = 70
	for _, seed := range []string{
		txFixture,
		"1 2\r\n3 4\r\n\r\n# comment\r\n",
		"0 69 69 64 63 0\n",
		"\t # indented comment\n7\t8\n\n\n",
		"5 70\n",
		"1 -2\n",
		"3 +4\n",
		"# only a comment",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadTransactions(bytes.NewReader(data), numItems)
		if err != nil {
			if d != nil {
				t.Fatalf("rejected input %q also returned a dataset", data)
			}
			return
		}
		var rows []map[int]bool
		for _, line := range strings.Split(string(data), "\n") {
			fields := strings.Fields(line)
			if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
				continue
			}
			row := map[int]bool{}
			for _, fld := range fields {
				it, err := strconv.Atoi(fld)
				if err != nil || it < 0 || it >= numItems {
					t.Fatalf("accepted input %q holds item %q", data, fld)
				}
				row[it] = true
			}
			rows = append(rows, row)
		}
		if d.N() != len(rows) {
			t.Fatalf("parsed %d transactions from %q, want %d", d.N(), data, len(rows))
		}
		for i, row := range rows {
			if d.Size(i) != len(row) {
				t.Fatalf("transaction %d of %q has %d items, want %d", i, data, d.Size(i), len(row))
			}
			for it := 0; it < numItems; it++ {
				if d.Contains(i, it) != row[it] {
					t.Fatalf("transaction %d of %q: Contains(%d) = %v, want %v", i, data, it, d.Contains(i, it), row[it])
				}
			}
		}
	})
}
