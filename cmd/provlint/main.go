// Command provlint runs the repo's invariant analyzers (internal/lint)
// over the module and exits nonzero on any finding. It is the
// mechanical form of the standing guardrails: determinism of the
// order-pinned paths (mapiter, detpath), the Key() wire/provenance
// contract (keystring), the architecture map's import boundaries
// (layering), the obs nil-safety contract (nilmetrics), and no
// per-pass heap box for an if or switch init variable whose address
// escapes (initaddr). See
// docs/LINTING.md.
//
// Usage:
//
//	provlint [-checks mapiter,layering] [-list] [dir ...]
//
// With no arguments every package in the module is analyzed (like
// ./...; testdata directories are skipped, as the go tool does).
// Directory arguments analyze ad-hoc packages — lint's own testdata,
// or a scratch reproduction. Suppress a single finding with
// //provlint:allow <check> <reason> on the flagged line or the line
// above; unused directives are themselves findings.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"provnet/internal/lint"
)

func main() {
	checksFlag := flag.String("checks", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Parse()

	all := lint.Analyzers()
	if *list {
		for _, a := range all {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	analyzers := all
	if *checksFlag != "" {
		byName := make(map[string]*lint.Analyzer)
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*checksFlag, ",") {
			a := byName[strings.TrimSpace(name)]
			if a == nil {
				fmt.Fprintf(os.Stderr, "provlint: unknown check %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "provlint: %v\n", err)
		os.Exit(2)
	}

	var pkgs []*lint.Package
	if args := flag.Args(); len(args) > 0 {
		for _, dir := range args {
			pkg, err := loader.LoadDir(dir, adHocPath(loader, dir))
			if err != nil {
				fmt.Fprintf(os.Stderr, "provlint: %v\n", err)
				os.Exit(2)
			}
			pkgs = append(pkgs, pkg)
		}
	} else {
		pkgs, err = loader.LoadModulePackages()
		if err != nil {
			fmt.Fprintf(os.Stderr, "provlint: %v\n", err)
			os.Exit(2)
		}
	}

	diags := lint.Run(loader.Fset, pkgs, analyzers, lint.DefaultConfig())
	for _, d := range diags {
		fmt.Println(rel(d.String()))
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "provlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// adHocPath derives a stable import path for a directory argument: a
// module-relative path when the directory is inside the module (so
// package-scoped rules can still match it), a synthetic one otherwise.
func adHocPath(l *lint.Loader, dir string) string {
	abs, err := filepath.Abs(dir)
	if err == nil {
		if r, err := filepath.Rel(l.Root, abs); err == nil && !strings.HasPrefix(r, "..") {
			return l.Module + "/" + filepath.ToSlash(r)
		}
	}
	return l.Module + "/adhoc/" + filepath.Base(dir)
}

// rel trims the working directory from diagnostic positions so output
// matches the file:line style of go vet.
func rel(s string) string {
	wd, err := os.Getwd()
	if err != nil {
		return s
	}
	return strings.TrimPrefix(s, wd+string(filepath.Separator))
}
