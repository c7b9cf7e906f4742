// Command ppdm-train trains a privacy-preserving decision-tree or naive-Bayes
// classifier from CSV data produced by ppdm-gen (a gzipped batch stream
// with -stream) and evaluates it on clean test data, read as a gzipped
// stream when the path ends in .gz and as plain CSV otherwise.
package main

import (
	"os"

	"ppdm/internal/cli"
)

func main() { os.Exit(cli.Train(os.Args[1:], os.Stdout, os.Stderr)) }
