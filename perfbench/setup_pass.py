"""Set-up child of run.py: generates the inputs of one pass.

    python3 perfbench/setup_pass.py DIR

Reads (specs, seed, pass index) from DIR/request.pickle, writes the
inputs into DIR and the pickled ladders to DIR/ladders.pickle.  Running
set-up in its own process keeps its memory out of the benchmark
process's peak RSS, which is the program's.
"""

import os
import pickle
import sys

import numpy as np

from workloads import build


def main(tmp):
    with open(os.path.join(tmp, "request.pickle"), "rb") as fh:
        specs, seed, pass_index = pickle.load(fh)
    ladders = build(specs, np.random.default_rng([seed, pass_index]), tmp)
    with open(os.path.join(tmp, "ladders.pickle"), "wb") as fh:
        pickle.dump(ladders, fh)


if __name__ == "__main__":
    main(sys.argv[1])
