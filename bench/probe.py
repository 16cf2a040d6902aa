"""Set-up probe, started afresh for every set-up sample of a benchmark run.

Imports edgesub, reads a JSON list of [host document, substituent document]
pairs from stdin, parses each with `edgesub.fileformat`, then prints `ready`.
The parent times it from process start to that line.
"""

import json
import sys

import program  # pins BLAS threads before numpy is imported

if __name__ == "__main__":
    program.import_edgesub()
    from edgesub.fileformat import load_graph, load_substituent

    for host, sub in json.load(sys.stdin):
        load_graph(host)
        load_substituent(sub)
    print("ready", flush=True)
