import os
import sys

# The benchmark's modules import each other as top-level modules, the way
# they are loaded when run as scripts from the benchmark directory.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
