// Command legion-idl is the Legion-aware compiler's front half (§4.1):
// it parses Legion IDL and either validates/pretty-prints it or
// generates Go method descriptors and a server adapter.
//
//	legion-idl check file.idl           # parse and canonicalize
//	legion-idl gen -pkg myapp file.idl  # emit Go descriptors to stdout
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/idl"
	"repro/internal/idlgen"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	pkg := fs.String("pkg", "main", "gen: package name for generated code")
	out := fs.String("o", "", "gen: output file (default stdout)")
	fs.Parse(os.Args[2:])
	if fs.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	interfaces, err := idl.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	switch cmd {
	case "check":
		for _, in := range interfaces {
			fmt.Print(in.Format())
		}
	case "gen":
		var buf []byte
		for _, in := range interfaces {
			code, err := idlgen.Generate(*pkg, in)
			if err != nil {
				fatal(err)
			}
			buf = append(buf, code...)
		}
		if *out == "" {
			os.Stdout.Write(buf)
			return
		}
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fatal(err)
		}
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: legion-idl check FILE.idl | legion-idl gen [-pkg NAME] [-o FILE] FILE.idl")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "legion-idl: %v\n", err)
	os.Exit(1)
}
