// Command ppdm-gen generates the synthetic classification benchmark of the
// paper's evaluation as CSV, optionally perturbed with uniform or gaussian
// noise at a chosen privacy level. Records stream from the generator to the
// output one batch at a time; -stream gzips the CSV.
package main

import (
	"os"

	"ppdm/internal/cli"
)

func main() { os.Exit(cli.Gen(os.Args[1:], os.Stdout, os.Stderr)) }
