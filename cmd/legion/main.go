// Command legion is the command-line client for a running Legion
// system (started with legiond). It exercises the public object model:
// deriving classes, creating instances, invoking methods, inspecting
// interfaces, and driving the Magistrate lifecycle.
//
//	legion -info /tmp/legion.json derive Counter demo.counter
//	legion -info /tmp/legion.json create L256.0
//	legion -info /tmp/legion.json call L256.1 Add int64:5
//	legion -info /tmp/legion.json interface L256.1
//	legion -info /tmp/legion.json deactivate 0 L256.1
//	legion -info /tmp/legion.json classinfo L256.0
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/class"
	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/idl"
	"repro/internal/loid"
	"repro/internal/magistrate"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/wire"
)

func main() {
	info := flag.String("info", "legion.json", "contact sheet path")
	selfID := flag.Uint64("as", 7777, "client identity sequence number")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}

	ni, err := core.LoadNetInfo(*info)
	if err != nil {
		log.Fatalf("legion: %v", err)
	}
	remote, err := core.Attach(ni)
	if err != nil {
		log.Fatalf("legion: %v", err)
	}
	defer remote.Close()
	self := loid.New(300, *selfID, loid.DeriveKey(fmt.Sprintf("cli/%d", *selfID)))
	cli, err := remote.NewClient(self)
	if err != nil {
		log.Fatalf("legion: %v", err)
	}

	if err := dispatch(ni, cli, args); err != nil {
		log.Fatalf("legion: %v", err)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: legion [-info FILE] COMMAND ...

commands:
  ping LOID                       liveness probe
  iam LOID                        ask the object to identify itself
  interface LOID                  print the object's interface (IDL)
  call LOID METHOD [type:val...]  invoke a method (types: string,int64,uint64,bool,bytes,loid)
  derive NAME IMPL                derive a class from LegionObject
  classinfo LOID                  summarize a class object
  create CLASS-LOID               create an instance of a class
  delete CLASS-LOID LOID          delete an instance through its class
  clone CLASS-LOID                clone a hot class (§5.2.2)
  activate MAG-IDX LOID           activate through jurisdiction MAG-IDX
  deactivate MAG-IDX LOID         deactivate through jurisdiction MAG-IDX
  move MAG-IDX LOID DST-MAG-IDX   migrate between jurisdictions
  magistrate MAG-IDX              list a jurisdiction's objects and hosts
  migrate MAG-IDX LOID HOST-LOID  live-migrate to another host, zero failed calls
  loads MAG-IDX                   print the jurisdiction's host load vectors
  rebalance MAG-IDX [ROUNDS]      run the load rebalancer, one round a second: the hottest
                                  host sheds residents to the coldest (default: until interrupted)
  query [MAG-IDX] "LQL"           run an LQL query on the observability plane, e.g.
                                  query "select loid, host, p999 from objects order by p999 desc limit 5"
  top [MAG-IDX] [ITERATIONS]      live cluster view: hosts, hottest objects, recent events
                                  (refreshes every second; default: until interrupted)
`)
}

// rebalanceEvery is the pause between two rounds of the rebalance
// command.
const rebalanceEvery = time.Second

func dispatch(ni *core.NetInfo, cli *rt.Caller, args []string) error {
	bg := context.Background()
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "ping":
		l, err := parseLOID(rest, 0)
		if err != nil {
			return err
		}
		res, err := cli.Call(l, "Ping")
		if err != nil {
			return err
		}
		if err := res.Err(); err != nil {
			return err
		}
		fmt.Printf("%v is alive\n", l)
		return nil
	case "iam":
		l, err := parseLOID(rest, 0)
		if err != nil {
			return err
		}
		res, err := cli.Call(l, "Iam")
		if err != nil {
			return err
		}
		raw, err := res.Result(0)
		if err != nil {
			return err
		}
		id, err := wire.AsLOID(raw)
		if err != nil {
			return err
		}
		fmt.Printf("%v says: I am %v\n", l, id)
		return nil
	case "interface":
		l, err := parseLOID(rest, 0)
		if err != nil {
			return err
		}
		res, err := cli.Call(l, "GetInterface")
		if err != nil {
			return err
		}
		raw, err := res.Result(0)
		if err != nil {
			return err
		}
		ifc, _, err := idl.Unmarshal(raw)
		if err != nil {
			return err
		}
		fmt.Print(ifc.Format())
		return nil
	case "call":
		if len(rest) < 2 {
			return fmt.Errorf("call needs LOID and METHOD")
		}
		l, err := parseLOID(rest, 0)
		if err != nil {
			return err
		}
		callArgs, err := parseArgs(rest[2:])
		if err != nil {
			return err
		}
		res, err := cli.Call(l, rest[1], callArgs...)
		if err != nil {
			return err
		}
		if res.Code != wire.OK {
			return fmt.Errorf("%s: %s", res.Code, res.ErrText)
		}
		for i, out := range res.Results {
			fmt.Printf("result[%d] = %s\n", i, renderResult(out))
		}
		if len(res.Results) == 0 {
			fmt.Println("ok")
		}
		return nil
	case "derive":
		if len(rest) < 2 {
			return fmt.Errorf("derive needs NAME and IMPL")
		}
		ifc := implInterface(rest[1])
		made, err := class.Derive.Call(bg, cli.To(loid.LegionObject), class.Subclass{Name: rest[0], Impl: rest[1], Interface: ifc})
		if err != nil {
			return err
		}
		fmt.Printf("derived class %s = %v\n", rest[0], made.LOID)
		return nil
	case "classinfo":
		l, err := parseLOID(rest, 0)
		if err != nil {
			return err
		}
		info, err := class.Info.Call(bg, cli.To(l))
		if err != nil {
			return err
		}
		fmt.Printf("class %s (%v): super=%v flags=%s instances=%d subclasses=%d\n",
			info.Name, l, info.Super, info.Flags, info.Instances, info.Subclasses)
		return nil
	case "create":
		l, err := parseLOID(rest, 0)
		if err != nil {
			return err
		}
		made, err := class.Create.Call(bg, cli.To(l), nil, loid.Nil, loid.Nil)
		if err != nil {
			return err
		}
		fmt.Printf("created %v at %v\n", made.LOID, made.Binding.Address)
		return nil
	case "delete":
		cls, err := parseLOID(rest, 0)
		if err != nil {
			return err
		}
		obj, err := parseLOID(rest, 1)
		if err != nil {
			return err
		}
		if _, err := class.Delete.Call(bg, cli.To(cls), obj); err != nil {
			return err
		}
		fmt.Printf("deleted %v\n", obj)
		return nil
	case "clone":
		l, err := parseLOID(rest, 0)
		if err != nil {
			return err
		}
		made, err := class.Clone.Call(bg, cli.To(l), loid.Nil)
		if err != nil {
			return err
		}
		fmt.Printf("cloned %v -> %v\n", l, made.LOID)
		return nil
	case "activate", "deactivate":
		mc, err := magClient(ni, cli, rest, 0)
		if err != nil {
			return err
		}
		obj, err := parseLOID(rest, 1)
		if err != nil {
			return err
		}
		if cmd == "activate" {
			b, err := magistrate.Activate.Call(bg, mc, obj, loid.Nil)
			if err != nil {
				return err
			}
			fmt.Printf("activated %v at %v\n", obj, b.Address)
			return nil
		}
		if _, err := magistrate.Deactivate.Call(bg, mc, obj); err != nil {
			return err
		}
		fmt.Printf("deactivated %v\n", obj)
		return nil
	case "move":
		mc, err := magClient(ni, cli, rest, 0)
		if err != nil {
			return err
		}
		obj, err := parseLOID(rest, 1)
		if err != nil {
			return err
		}
		if len(rest) < 3 {
			return fmt.Errorf("move needs DST-MAG-IDX")
		}
		dst, err := magClient(ni, cli, rest, 2)
		if err != nil {
			return err
		}
		if _, err := magistrate.Move.Call(bg, mc, obj, dst.Target); err != nil {
			return err
		}
		fmt.Printf("moved %v to jurisdiction %s\n", obj, rest[2])
		return nil
	case "magistrate":
		mc, err := magClient(ni, cli, rest, 0)
		if err != nil {
			return err
		}
		hosts, err := magistrate.ListHosts.Call(bg, mc)
		if err != nil {
			return err
		}
		objs, err := magistrate.ListObjects.Call(bg, mc)
		if err != nil {
			return err
		}
		fmt.Printf("magistrate %v\n  hosts:", mc.Target)
		for _, h := range hosts {
			fmt.Printf(" %v", h)
		}
		fmt.Printf("\n  objects:")
		for _, o := range objs {
			fmt.Printf(" %v", o)
		}
		fmt.Println()
		return nil
	case "migrate":
		mc, err := magClient(ni, cli, rest, 0)
		if err != nil {
			return err
		}
		obj, err := parseLOID(rest, 1)
		if err != nil {
			return err
		}
		h, err := parseLOID(rest, 2)
		if err != nil {
			return err
		}
		if _, err := magistrate.MigrateObject.Call(bg, mc, obj, h); err != nil {
			return err
		}
		fmt.Printf("migrated %v to %v\n", obj, h)
		return nil
	case "loads":
		mc, err := magClient(ni, cli, rest, 0)
		if err != nil {
			return err
		}
		loads, err := magistrate.GetLoads.Call(bg, mc)
		if err != nil {
			return err
		}
		fmt.Printf("%-16s %9s %7s %9s %7s %8s\n", "host", "residents", "depth", "disp/s", "score", "report")
		for _, hl := range loads {
			age := "never"
			if hl.Age >= 0 {
				age = hl.Age.Truncate(time.Millisecond).String() + " ago"
			}
			fmt.Printf("%-16v %9d %7d %9d %7.2f %8s\n", hl.Host,
				hl.Load.Residents, hl.Load.MailboxDepth, hl.Load.DispatchRate,
				hl.Load.Score(), age)
		}
		return nil
	case "rebalance":
		mc, err := magClient(ni, cli, rest, 0)
		if err != nil {
			return err
		}
		rounds := 0 // 0 = run forever
		if len(rest) > 1 {
			if rounds, err = strconv.Atoi(rest[1]); err != nil || rounds < 1 {
				return fmt.Errorf("bad round count %q", rest[1])
			}
		}
		rb := sched.NewRebalancer(mc, nil)
		fmt.Printf("rebalancing jurisdiction %v (hot > %.1fx mean for %d rounds sheds towards the mean)\n",
			mc.Target, rb.HotFactor, rb.SustainRounds)
		for i := 0; rounds == 0 || i < rounds; i++ {
			moved, err := rb.RoundNow(bg)
			if err != nil {
				return err
			}
			if moved > 0 {
				fmt.Printf("round %d: moved %d object(s)\n", i+1, moved)
			}
			if rounds == 0 || i+1 < rounds {
				time.Sleep(rebalanceEvery)
			}
		}
		return nil
	case "query":
		if len(rest) == 0 {
			return fmt.Errorf(`query needs an LQL string, e.g. query "select * from hosts"`)
		}
		idx, q := "0", rest[0]
		if len(rest) > 1 {
			idx, q = rest[0], rest[1]
		}
		mc, err := magClientAt(ni, cli, idx)
		if err != nil {
			return err
		}
		t, err := magistrate.Query.Call(bg, mc, q)
		if err != nil {
			return err
		}
		fmt.Print(t.Format())
		return nil
	case "top":
		idx := "0"
		if len(rest) > 0 {
			idx = rest[0]
		}
		iters := 0 // 0 = refresh until interrupted
		if len(rest) > 1 {
			var err error
			if iters, err = strconv.Atoi(rest[1]); err != nil || iters < 1 {
				return fmt.Errorf("bad iteration count %q", rest[1])
			}
		}
		mc, err := magClientAt(ni, cli, idx)
		if err != nil {
			return err
		}
		return runTop(mc, iters)
	default:
		usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// runTop renders a refreshing cluster view off the magistrate's
// observability plane: host load, the hottest objects, and the tail of
// the flight recorder. iters bounds the refresh count (0 = forever).
func runTop(mc rt.Ref, iters int) error {
	bg := context.Background()
	for i := 0; iters == 0 || i < iters; i++ {
		hosts, err := magistrate.Query.Call(bg, mc, "select * from hosts order by score desc")
		if err != nil {
			return err
		}
		objs, err := magistrate.Query.Call(bg, mc, "select loid, impl, host, calls, p99, p999 from objects order by calls desc limit 10")
		if err != nil {
			return err
		}
		events, err := magistrate.Query.Call(bg, mc, "select at, host, kind, object, detail from events order by at desc limit 8")
		if err != nil {
			return err
		}
		if i > 0 || iters != 1 {
			fmt.Print("\x1b[H\x1b[2J") // home + clear; a plain dump when run once
		}
		fmt.Printf("legion top — magistrate %v (refresh %d)\n\nHOSTS\n%s\nHOT OBJECTS\n%s\nRECENT EVENTS\n%s",
			mc.Target, i+1, hosts.Format(), objs.Format(), events.Format())
		if iters == 0 || i+1 < iters {
			time.Sleep(time.Second)
		}
	}
	return nil
}

func magClient(ni *core.NetInfo, cli *rt.Caller, rest []string, idx int) (rt.Ref, error) {
	if idx >= len(rest) {
		return rt.Ref{}, fmt.Errorf("missing magistrate index")
	}
	return magClientAt(ni, cli, rest[idx])
}

func magClientAt(ni *core.NetInfo, cli *rt.Caller, idxStr string) (rt.Ref, error) {
	i, err := strconv.Atoi(idxStr)
	if err != nil || i < 0 || i >= len(ni.Magistrates) {
		return rt.Ref{}, fmt.Errorf("bad magistrate index %q (have %d)", idxStr, len(ni.Magistrates))
	}
	l, err := loid.Parse(ni.Magistrates[i].LOID)
	if err != nil {
		return rt.Ref{}, err
	}
	return cli.To(l), nil
}

func parseLOID(rest []string, idx int) (loid.LOID, error) {
	if idx >= len(rest) {
		return loid.Nil, fmt.Errorf("missing LOID argument")
	}
	return loid.Parse(rest[idx])
}

// parseArgs converts "type:value" strings to wire arguments.
func parseArgs(ss []string) ([][]byte, error) {
	var out [][]byte
	for _, s := range ss {
		ty, val, found := strings.Cut(s, ":")
		if !found {
			// Untyped arguments are strings.
			out = append(out, wire.String(s))
			continue
		}
		switch ty {
		case "string":
			out = append(out, wire.String(val))
		case "int64":
			v, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad int64 %q: %w", val, err)
			}
			out = append(out, wire.Int64(v))
		case "uint64":
			v, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad uint64 %q: %w", val, err)
			}
			out = append(out, wire.Uint64(v))
		case "bool":
			out = append(out, wire.Bool(val == "true"))
		case "bytes":
			out = append(out, []byte(val))
		case "loid":
			l, err := loid.Parse(val)
			if err != nil {
				return nil, err
			}
			out = append(out, wire.LOID(l))
		default:
			return nil, fmt.Errorf("unknown argument type %q", ty)
		}
	}
	return out, nil
}

// renderResult prints a result argument with best-effort decoding.
func renderResult(b []byte) string {
	if len(b) == 8 {
		if v, err := wire.AsUint64(b); err == nil {
			return fmt.Sprintf("%d (uint64) / %d (int64) / %q", v, int64(v), b)
		}
	}
	if len(b) == 1 && b[0] <= 1 {
		return fmt.Sprintf("%v (bool)", b[0] == 1)
	}
	if l, err := wire.AsLOID(b); err == nil {
		return fmt.Sprintf("%v (loid)", l)
	}
	return fmt.Sprintf("%q", b)
}

// implInterface returns the interface matching a known demo impl, or
// nil for unknown implementations (inherit-only derive).
func implInterface(impl string) *idl.Interface {
	switch impl {
	case demo.CounterImpl:
		return demo.CounterInterface()
	case demo.EchoImpl:
		return demo.EchoInterface()
	case demo.KVImpl:
		return demo.KVInterface()
	default:
		return nil
	}
}
