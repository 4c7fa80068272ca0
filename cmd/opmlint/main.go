// Command opmlint is the repo's contract linter: a standard-library-
// only static-analysis pass enforcing the determinism, telemetry,
// store-safety and concurrency contracts the published figures depend
// on (see internal/lint and DESIGN.md §10). It is a hard gate in
// scripts/check.sh and `make lint`.
//
// Usage:
//
//	opmlint [-sarif] [-checks determinism,ctxflow,...] [packages...]
//
// Packages are directories relative to the working directory; a
// trailing /... walks the subtree (default ./...). -sarif emits SARIF
// 2.1.0 for GitHub code scanning. Exit status: 0 clean, 1 findings, 2
// the tree could not be loaded or type-checked.
//
// Suppress a finding with an auditable annotation on or above the
// offending line (or in the enclosing declaration's doc comment):
//
//	//opmlint:allow <check> — <reason>
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("opmlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sarifOut := fs.Bool("sarif", false, "emit findings as SARIF 2.1.0 (for GitHub code scanning)")
	checksFlag := fs.String("checks", "", "comma-separated checks to run (default: all)")
	list := fs.Bool("list", false, "list available checks and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: opmlint [-sarif] [-checks c1,c2] [-list] [packages...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, c := range lint.AllChecks() {
			fmt.Fprintf(stdout, "%-14s %s\n", c.Name, c.Doc)
		}
		return 0
	}
	checks, err := lint.CheckByName(*checksFlag)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	findings, err := lint.Run(cwd, lint.Options{Patterns: fs.Args(), Checks: checks})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *sarifOut {
		out, err := lint.FormatSARIF(findings, checks)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		fmt.Fprint(stdout, out)
	} else {
		fmt.Fprint(stdout, lint.FormatText(findings))
		if len(findings) > 0 {
			fmt.Fprintf(stderr, "opmlint: %d finding(s)\n", len(findings))
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}
