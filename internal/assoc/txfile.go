package assoc

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
)

// TxFileBatch is the number of parsed transactions handed to the dataset at
// a time by the transaction-file readers. It bounds ingestion memory: at
// most this many parsed transactions are buffered beyond the dataset's own
// columns.
const TxFileBatch = 4096

// MaxInferredItems caps the item universe ReadTransactionsFile will infer
// from the data. Dataset stores transactions as dense bitsets — numItems/8
// bytes per transaction regardless of how many items it holds — so a file
// with sparse six-digit item IDs (or one corrupt line) would silently
// allocate gigabytes. Past the cap, inference refuses with an error; pass
// an explicit numItems to opt into a larger (still dense) universe.
const MaxInferredItems = 1 << 16

// ReadTransactions parses a plain-text transaction stream — one transaction
// per line, items as space-separated non-negative integer IDs; blank lines
// and lines starting with '#' are skipped — into a Dataset over items
// 0..numItems-1, feeding the dataset batch-wise (TxFileBatch transactions
// at a time) so ingestion memory stays O(batch) beyond the packed dataset
// itself.
func ReadTransactions(r io.Reader, numItems int) (*Dataset, error) {
	d, err := NewDataset(numItems)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	batch := make([][]int, 0, TxFileBatch)
	line := 0
	for sc.Scan() {
		line++
		items, ok, err := parseTxLine(sc.Bytes(), line)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		batch = append(batch, items)
		if len(batch) == TxFileBatch {
			if err := d.AddBatch(batch); err != nil {
				return nil, err
			}
			batch = batch[:0]
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("assoc: reading transactions: %w", err)
	}
	if len(batch) > 0 {
		if err := d.AddBatch(batch); err != nil {
			return nil, err
		}
	}
	if d.N() == 0 {
		return nil, fmt.Errorf("assoc: transaction stream holds no transactions")
	}
	return d, nil
}

// ReadTransactionsFile reads a transaction file in the ReadTransactions
// format. numItems <= 0 infers the item universe with a first streaming
// pass (max item ID + 1, refused above MaxInferredItems — see there) before
// ingesting in a second, so arbitrarily large files load without ever
// buffering parsed transactions.
func ReadTransactionsFile(path string, numItems int) (*Dataset, error) {
	if numItems <= 0 {
		var err error
		numItems, err = scanItemUniverse(path)
		if err != nil {
			return nil, err
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := ReadTransactions(f, numItems)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return d, nil
}

// scanItemUniverse streams the file once and returns max item ID + 1.
func scanItemUniverse(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	maxItem := -1
	line := 0
	for sc.Scan() {
		line++
		items, ok, err := parseTxLine(sc.Bytes(), line)
		if err != nil {
			return 0, fmt.Errorf("%w (file %s)", err, path)
		}
		if !ok {
			continue
		}
		for _, it := range items {
			if it > maxItem {
				maxItem = it
			}
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("assoc: scanning %s: %w", path, err)
	}
	if maxItem < 0 {
		return 0, fmt.Errorf("assoc: %s holds no transactions", path)
	}
	if maxItem+1 > MaxInferredItems {
		return 0, fmt.Errorf("assoc: %s holds item ID %d; inferring a %d-item dense universe would take %d bytes per transaction — pass an explicit item count to accept that, or remap the IDs",
			path, maxItem, maxItem+1, (maxItem+64)/64*8)
	}
	return maxItem + 1, nil
}

// parseTxLine parses one line into item IDs; ok is false for blank and
// comment lines.
func parseTxLine(b []byte, line int) (items []int, ok bool, err error) {
	i := 0
	for i < len(b) {
		// skip runs of spaces/tabs (and a stray \r from CRLF files)
		for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r') {
			i++
		}
		if i >= len(b) {
			break
		}
		if b[i] == '#' && len(items) == 0 {
			return nil, false, nil
		}
		start := i
		for i < len(b) && b[i] != ' ' && b[i] != '\t' && b[i] != '\r' {
			i++
		}
		id, perr := strconv.Atoi(string(b[start:i]))
		if perr != nil || id < 0 {
			return nil, false, fmt.Errorf("assoc: line %d: %q is not a non-negative item ID", line, b[start:i])
		}
		items = append(items, id)
	}
	if len(items) == 0 {
		return nil, false, nil
	}
	return items, true, nil
}
