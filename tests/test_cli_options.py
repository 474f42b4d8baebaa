"""Guard: each CLI command takes only the options it reads.

For each leaf command, every option's ``dest`` must be read as
``args.<dest>`` by the command's handler, or by a function of ``cli.py``
that the handler (or such a function, at any depth) passes ``args`` to.
An option that nothing reads is dead: it is accepted, shown in --help,
and ignored. README's table of config keys must name the keys, options
and commands that the parser's config handling reaches.
"""

import argparse
import ast
import re
from pathlib import Path

from evenlog import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def leaves(parser, words=()) -> list[tuple[str, argparse.ArgumentParser]]:
    """(command, parser) of each leaf sub-command under ``parser``."""
    for action in parser._actions:
        if action.nargs == argparse.PARSER:
            return [leaf for name, sub in action.choices.items() for leaf in leaves(sub, (*words, name))]
    return [(" ".join(words), parser)]


def reads(tree, handler: str) -> set[str]:
    """Each name read as ``<args>.<name>`` in the function ``handler`` of
    ``tree``, where ``<args>`` is its first parameter, and in each function
    of ``tree`` that it passes that parameter to, at any depth."""
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    found, done, todo = set(), set(), [(handler, functions[handler].args.args[0].arg)]
    while todo:
        name, param = todo.pop()
        if (name, param) in done:
            continue
        done.add((name, param))
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == param:
                found.add(node.attr)
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in functions:
                params = functions[node.func.id].args.args
                todo += [(node.func.id, params[i].arg) for i, arg in enumerate(node.args)
                         if getattr(arg, "id", None) == param]
                todo += [(node.func.id, kw.arg) for kw in node.keywords if getattr(kw.value, "id", None) == param]
    return found


def dead_options(parser, tree) -> list[str]:
    """'<command> <dest>' of each option that its command's handler does not read."""
    dead = []
    for command, leaf in leaves(parser):
        read = reads(tree, leaf.get_default("func").__name__)
        dead += [f"{command} {a.dest}" for a in leaf._actions if a.dest != "help" and a.dest not in read]
    return sorted(dead)


def test_every_option_is_read_by_its_command():
    assert dead_options(cli.build_parser(), ast.parse(Path(cli.__file__).read_text())) == []


def test_the_guard_sees_a_dead_option():
    parser = cli.build_parser()
    dict(leaves(parser))["gen"].add_argument("--planted", type=int)
    assert dead_options(parser, ast.parse(Path(cli.__file__).read_text())) == ["gen planted"]
    code = ("def cmd(args):\n    helper(1, ns=args)\n    other(args.a)\n    show(0, args)\n"
            "def helper(x, ns):\n    return ns.b, pass_on(ns)\n"
            "def pass_on(a):\n    return a.c\n"
            "def other(v):\n    return v.d\n"
            "def show(args, x):\n    return args.e, x.f\n")
    assert reads(ast.parse(code), "cmd") == {"a", "b", "c", "f"}


def test_readme_lists_the_config_keys_the_parser_takes():
    reached = {}  # key -> (option, commands)
    for command, leaf in leaves(cli.build_parser()):
        for action in leaf._actions:
            if getattr(action, "config_key", None):
                option, commands = reached.setdefault(action.config_key, (action.option_strings[0], []))
                commands.append(command)
    rows = re.findall(r"^\| `(\w+)` \| `(--[\w-]+)` \| (.+) \|$", README.read_text(), re.MULTILINE)
    assert {key: (option, re.findall(r"`([\w ]+)`", commands)) for key, option, commands in rows} == reached
    assert set(reached) == set(cli._config_options(cli.build_parser()))
