// Package idlgen generates Go code from Legion IDL interfaces: one
// typed method descriptor per IDL method (rt.Method0..Method3) and the
// server adapter that serves them. It stands in for the paper's
// "Legion-aware compiler" (§4.1): "a user will write a Legion
// application program in her favorite language ... the compiler uses
// the context to map string names to LOIDs" — here, the favorite
// language is Go, and a method call is the descriptor's Call, so
// application code never touches [][]byte.
package idlgen

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/idl"
)

// idlTypes maps each IDL parameter type to its Go type, the rt codec
// that carries it and the import the Go type needs.
var idlTypes = map[idl.Type]struct{ goType, codec, imp string }{
	idl.TInt64:   {"int64", "rt.Int64Param", ""},
	idl.TUint64:  {"uint64", "rt.Uint64Param", ""},
	idl.TString:  {"string", "rt.StringParam", ""},
	idl.TBool:    {"bool", "rt.BoolParam", ""},
	idl.TBytes:   {"[]byte", "rt.BytesParam", ""},
	idl.TLOID:    {"loid.LOID", "rt.LOIDParam", "repro/internal/loid"},
	idl.TAddress: {"oa.Address", "rt.AddressParam", "repro/internal/oa"},
	idl.TBinding: {"binding.Binding", "rt.BindingParam", "repro/internal/binding"},
	idl.TTime:    {"time.Time", "rt.TimeParam", "time"},
}

func exportName(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

// goKeywords guards generated identifiers derived from IDL names.
var goKeywords = map[string]bool{
	"break": true, "case": true, "chan": true, "const": true,
	"continue": true, "default": true, "defer": true, "else": true,
	"fallthrough": true, "for": true, "func": true, "go": true,
	"goto": true, "if": true, "import": true, "interface": true,
	"map": true, "package": true, "range": true, "return": true,
	"select": true, "struct": true, "switch": true, "type": true,
	"var": true, "ctx": true,
}

// paramIdent renders an IDL parameter name as a safe Go identifier.
func paramIdent(name string) string {
	if goKeywords[name] {
		return name + "_"
	}
	return name
}

// method is one IDL method as the generator emits it.
type method struct {
	idl.MethodSig
	desc string // descriptor variable, e.g. CounterAdd
	// argStruct and resStruct mark a struct, named desc+"Args" or
	// desc+"Results", that carries more than three arguments or more
	// than one result.
	argStruct, resStruct bool
}

// Generate emits a Go source file declaring the interface's methods as
// descriptors, the server interface a Go object implements to serve
// them, and the adapter that makes such an object a Legion object.
func Generate(pkg string, in *idl.Interface) ([]byte, error) {
	if in == nil || in.Len() == 0 {
		return nil, fmt.Errorf("idlgen: empty interface")
	}
	name := exportName(in.Name)
	imports := map[string]bool{"context": true, "repro/internal/idl": true, "repro/internal/rt": true}
	var ms []method
	for _, s := range in.Methods() {
		for _, p := range append(append([]idl.Param{}, s.Params...), s.Returns...) {
			t, ok := idlTypes[p.Type]
			if !ok {
				return nil, fmt.Errorf("idlgen: unmapped IDL type %q", p.Type)
			}
			if t.imp != "" {
				imports[t.imp] = true
			}
		}
		ms = append(ms, method{s, name + exportName(s.Name), len(s.Params) > 3, len(s.Returns) > 1})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "// Code generated by legion-idl from interface %s. DO NOT EDIT.\n", in.Name)
	fmt.Fprintf(&b, "package %s\n\nimport (\n", pkg)
	paths := make([]string, 0, len(imports))
	for imp := range imports {
		paths = append(paths, imp)
	}
	sort.Slice(paths, func(i, j int) bool { // standard library first
		si, sj := !strings.Contains(paths[i], "/"), !strings.Contains(paths[j], "/")
		if si != sj {
			return si
		}
		return paths[i] < paths[j]
	})
	for i, imp := range paths {
		if i > 0 && strings.Contains(imp, "/") && !strings.Contains(paths[i-1], "/") {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "\t%q\n", imp)
	}
	b.WriteString(")\n\n")

	fmt.Fprintf(&b, "// %s's remote methods: call one with Call(ctx, caller.To(target), ...).\nvar (\n", in.Name)
	for _, m := range ms {
		var codecs []string
		if m.argStruct {
			codecs = append(codecs, structCodec(m.desc+"Args", m.Params))
		} else {
			for _, p := range m.Params {
				codecs = append(codecs, codec(p))
			}
		}
		switch {
		case m.resStruct:
			codecs = append(codecs, structCodec(m.desc+"Results", m.Returns))
		case len(m.Returns) == 1:
			codecs = append(codecs, codec(m.Returns[0]))
		case m.OneWay:
			codecs = append(codecs, "rt.NoReply")
		default:
			codecs = append(codecs, "rt.None")
		}
		fmt.Fprintf(&b, "\t%s = rt.M%d(%q, %s)\n", m.desc, len(codecs)-1, m.Name, strings.Join(codecs, ", "))
	}
	b.WriteString(")\n\n")

	for _, m := range ms {
		if m.argStruct {
			writeStruct(&b, m.desc+"Args", "the arguments of "+m.Name, m.Params)
		}
		if m.resStruct {
			writeStruct(&b, m.desc+"Results", "the results of "+m.Name, m.Returns)
		}
	}

	fmt.Fprintf(&b, "// %sServer is the behaviour a Go object provides to serve %s.\n", name, in.Name)
	fmt.Fprintf(&b, "type %sServer interface {\n", name)
	for _, m := range ms {
		params := []string{"ctx context.Context"}
		for _, p := range m.Params {
			params = append(params, paramIdent(p.Name)+" "+idlTypes[p.Type].goType)
		}
		fmt.Fprintf(&b, "\t%s(%s) %s\n", exportName(m.Name), strings.Join(params, ", "), results(m))
	}
	b.WriteString("}\n\n")

	server := strings.ToLower(name[:1]) + name[1:] + "Methods"
	fmt.Fprintf(&b, "var %s = rt.NewServer(%q,\n", server, in.Name)
	for _, m := range ms {
		fmt.Fprintf(&b, "\t%s,\n", serveEntry(name, m))
	}
	b.WriteString(")\n\n")
	fmt.Fprintf(&b, "// %sInterface returns the IDL interface. Every call returns the same\n// value; Clone it before changing it.\n", name)
	fmt.Fprintf(&b, "func %sInterface() *idl.Interface { return %s.Interface() }\n\n", name, server)
	fmt.Fprintf(&b, "// New%sImpl adapts a %sServer into a Legion object implementation.\n", name, name)
	b.WriteString("// State persistence (SaveState/RestoreState) may be supplied; nil\n// save/restore yields a stateless object.\n")
	fmt.Fprintf(&b, "func New%sImpl(srv %sServer, save func() ([]byte, error), restore func([]byte) error) rt.Impl {\n", name, name)
	fmt.Fprintf(&b, "\treturn %s.Impl(srv, save, restore)\n}\n", server)
	return []byte(b.String()), nil
}

func codec(p idl.Param) string { return fmt.Sprintf("%s(%q)", idlTypes[p.Type].codec, p.Name) }

// structCodec carries the struct typ over ps, one field each.
func structCodec(typ string, ps []idl.Param) string {
	fields := make([]string, len(ps))
	for i, p := range ps {
		fields[i] = fmt.Sprintf("\n\t\trt.Field(%s, func(v *%s) *%s { return &v.%s })",
			codec(p), typ, idlTypes[p.Type].goType, exportName(p.Name))
	}
	return "rt.Struct(" + strings.Join(fields, ",") + ")"
}

func writeStruct(b *strings.Builder, typ, doc string, ps []idl.Param) {
	fmt.Fprintf(b, "// %s carries %s.\ntype %s struct {\n", typ, doc, typ)
	for _, p := range ps {
		fmt.Fprintf(b, "\t%s %s\n", exportName(p.Name), idlTypes[p.Type].goType)
	}
	b.WriteString("}\n\n")
}

// results renders the server method's results.
func results(m method) string {
	switch {
	case m.resStruct:
		return fmt.Sprintf("(%sResults, error)", m.desc)
	case len(m.Returns) == 1:
		return fmt.Sprintf("(%s, error)", idlTypes[m.Returns[0].Type].goType)
	default:
		return "error"
	}
}

// serveEntry serves m on the server interface: the method expression
// itself when its shape is the descriptor's, else an adapter.
func serveEntry(name string, m method) string {
	n := len(m.Params)
	if m.argStruct {
		n = 1
	}
	serve := fmt.Sprintf("rt.Serve%d(%s, ", n, m.desc)
	if !m.argStruct && (len(m.Returns) == 1 || m.resStruct) {
		return serve + name + "Server." + exportName(m.Name) + ")"
	}
	params := []string{"s " + name + "Server", "ctx context.Context"}
	args := []string{"ctx"}
	switch {
	case m.argStruct:
		params = append(params, "a "+m.desc+"Args")
		for _, p := range m.Params {
			args = append(args, "a."+exportName(p.Name))
		}
	default:
		for _, p := range m.Params {
			params = append(params, paramIdent(p.Name)+" "+idlTypes[p.Type].goType)
			args = append(args, paramIdent(p.Name))
		}
	}
	call := fmt.Sprintf("s.%s(%s)", exportName(m.Name), strings.Join(args, ", "))
	if len(m.Returns) == 0 {
		return fmt.Sprintf("%sfunc(%s) (rt.Void, error) {\n\t\treturn rt.Void{}, %s\n\t})", serve, strings.Join(params, ", "), call)
	}
	res := strings.TrimSuffix(strings.TrimPrefix(results(m), "("), ", error)")
	return fmt.Sprintf("%sfunc(%s) (%s, error) {\n\t\treturn %s\n\t})", serve, strings.Join(params, ", "), res, call)
}
