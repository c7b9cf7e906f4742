// Package cli implements the logic behind the repository's command-line
// tools (cmd/ppdm-gen, cmd/ppdm-train, cmd/ppdm-reconstruct, cmd/ppdm-eval,
// cmd/ppdm-serve, cmd/ppdm-gateway) in a testable form: every command is a
// function from arguments and output writers to an exit code.
package cli

import (
	"fmt"
	"io"
	"os"

	"ppdm/internal/dataset"
	"ppdm/internal/stream"
	"ppdm/internal/synth"
)

// fail prints the error and returns exit code 1.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "error:", err)
	return 1
}

// readBenchmarkCSV loads a plain CSV file in the synthetic-benchmark schema.
func readBenchmarkCSV(path string) (*dataset.Table, error) {
	src, closeFn, err := openRecordStream(path, false, 0)
	if err != nil {
		return nil, err
	}
	defer closeFn()
	return stream.Collect(src)
}

// writeRecordStream drains src into a CSV file (or stdout for "-"), gzipped
// when gzipped is set, one batch in memory at a time, and returns the
// record count.
func writeRecordStream(src stream.Source, path string, gzipped bool, stdout io.Writer) (int, error) {
	out := stdout
	var f *os.File
	if path != "-" && path != "" {
		var err error
		f, err = os.Create(path)
		if err != nil {
			return 0, err
		}
		out = f
	}
	newWriter := stream.NewCSVWriter
	if gzipped {
		newWriter = stream.NewWriter
	}
	n := 0
	w, err := newWriter(out, src.Schema())
	if err == nil {
		_, err = stream.Copy(w, src)
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		n = w.N()
	}
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return n, err
}

// openRecordStream opens a CSV record file (or stdin for "-") in the
// synthetic-benchmark schema, gunzipping it when gzipped is set. The
// returned close function releases the file handle.
func openRecordStream(path string, gzipped bool, batch int) (*stream.Reader, func() error, error) {
	in := io.Reader(os.Stdin)
	closeFn := func() error { return nil }
	if path != "-" && path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		in = f
		closeFn = f.Close
	}
	newReader := stream.NewCSVReader
	if gzipped {
		newReader = stream.NewReader
	}
	r, err := newReader(in, synth.Schema(), batch)
	if err != nil {
		closeFn()
		return nil, nil, err
	}
	return r, closeFn, nil
}
