import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
sys.path.insert(0, PERFBENCH)
sys.path.insert(0, os.path.join(os.path.dirname(PERFBENCH), "src"))
